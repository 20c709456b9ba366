package sqlparse

import "strings"

// Pin analysis: the statement facts the cluster's shard router and the
// engine's index probe both read. Equalities walks the `col = const`
// conjuncts of a WHERE clause and Const decides what a constant is; the
// router (ShardExprs, below) and sqldb's probe each add only their own rule
// for which column counts.
//
// Shard-key extraction: given a parsed statement and a table's shard column,
// find the expressions that pin every affected row of that table to specific
// key values. The cluster's shard router evaluates those expressions against
// the statement's arguments at execution time — when they all hash to one
// shard, the statement ships to that shard alone; when extraction fails (no
// equality conjunct on the key column) the statement scatter-gathers.
//
// Extraction is conservative by construction: it only claims a pin when the
// predicate structure guarantees that any row the statement touches carries
// one of the returned key values. A false negative costs a scatter; a false
// positive would silently lose rows, so anything not provably pinned returns
// ok=false.

// Const reports whether e evaluates without row context: a literal, a '?'
// parameter, or a negation of one.
func Const(e Expr) bool {
	switch x := e.(type) {
	case *IntLit, *StringLit, *ParamExpr:
		return true
	case *NegExpr:
		return Const(x.E)
	default:
		return false
	}
}

// Equalities calls fn, left to right, on each top-level AND conjunct of
// where that equates a column with a Const expression (the column on either
// side), until fn returns true; it reports whether one did.
func Equalities(where Expr, fn func(col *ColRefExpr, val Expr) bool) bool {
	e, ok := where.(*BinaryExpr)
	switch {
	case !ok:
		return false
	case e.Op == OpAnd:
		return Equalities(e.L, fn) || Equalities(e.R, fn)
	case e.Op != OpEq:
		return false
	}
	col, val := e.L, e.R
	if _, isCol := col.(*ColRefExpr); !isCol {
		col, val = val, col
	}
	cr, isCol := col.(*ColRefExpr)
	return isCol && Const(val) && fn(cr, val)
}

// ShardExprs returns the expressions constraining table's shard column in st.
//
// For INSERT the returned slice holds one expression per VALUES row (the
// value landing in column). For SELECT/UPDATE/DELETE it holds the value of
// an equality conjunct on the column that every matching row must satisfy.
// Each returned expression is Const, so callers can evaluate it with only
// the statement arguments.
//
// ok=false means the statement is not provably pinned and must be treated as
// cross-shard.
func ShardExprs(st Statement, table, column string) (exprs []Expr, ok bool) {
	switch s := st.(type) {
	case *Insert:
		if !strings.EqualFold(s.Table, table) {
			return nil, false
		}
		pos := -1
		for i, c := range s.Columns {
			if strings.EqualFold(c, column) {
				pos = i
			}
		}
		if pos < 0 {
			return nil, false
		}
		for _, row := range s.Rows {
			if pos >= len(row) || !Const(row[pos]) {
				return nil, false
			}
			exprs = append(exprs, row[pos])
		}
		return exprs, len(exprs) > 0
	case *Update:
		// An UPDATE that reassigns the shard column could move a row between
		// shards, which single-shard routing cannot express.
		for _, a := range s.Set {
			if strings.EqualFold(a.Column, column) {
				return nil, false
			}
		}
		return pin(s.Where, []TableRef{{Table: s.Table}}, table, column)
	case *Delete:
		return pin(s.Where, []TableRef{{Table: s.Table}}, table, column)
	case *Select:
		refs := []TableRef{s.From}
		if s.Join != nil {
			refs = append(refs, s.Join.Table)
		}
		return pin(s.Where, refs, table, column)
	default:
		return nil, false
	}
}

// pin returns the constant of the first `col = const` conjunct of where
// whose column is table's shard column, where refs are the statement's
// FROM/JOIN entries in order.
func pin(where Expr, refs []TableRef, table, column string) ([]Expr, bool) {
	var val Expr
	if !Equalities(where, func(cr *ColRefExpr, v Expr) bool {
		val = v
		return strings.EqualFold(cr.Column, column) && boundTo(refs, cr.Table, table)
	}) {
		return nil, false
	}
	return []Expr{val}, true
}

// boundTo reports whether a column under qualifier qual ("" when
// unqualified) reads table, by the engine's binding rule: a qualified
// column belongs to the first entry whose bound name (TableRef.Name: the
// alias, else the table's own name) is qual, so a table under an alias is
// never reached by its own name. An unqualified column is table's when
// table is bound at all: were another entry to have the column too, the
// engine would refuse the statement as ambiguous.
func boundTo(refs []TableRef, qual, table string) bool {
	for _, r := range refs {
		switch {
		case qual == "" && strings.EqualFold(r.Table, table):
			return true
		case qual != "" && strings.EqualFold(r.Name(), qual):
			return strings.EqualFold(r.Table, table)
		}
	}
	return false
}
