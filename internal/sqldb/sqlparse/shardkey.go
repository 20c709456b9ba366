package sqlparse

import "strings"

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

// ShardExprs returns the expressions constraining table's shard column in st.
//
// For INSERT the returned slice holds one expression per VALUES row (the
// value landing in column). For SELECT/UPDATE/DELETE it holds the value of
// an equality conjunct on the column that every matching row must satisfy.
// Each returned expression is constant — a literal, a '?' parameter, or a
// negation of one — so callers can evaluate it with only the statement
// arguments.
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
			if pos >= len(row) || !shardConst(row[pos]) {
				return nil, false
			}
			exprs = append(exprs, row[pos])
		}
		return exprs, len(exprs) > 0
	case *Update:
		if !strings.EqualFold(s.Table, table) {
			return nil, false
		}
		// An UPDATE that reassigns the shard column could move a row between
		// shards, which single-shard routing cannot express.
		for _, a := range s.Set {
			if strings.EqualFold(a.Column, column) {
				return nil, false
			}
		}
		return whereShardExprs(s.Where, []string{s.Table}, column)
	case *Delete:
		if !strings.EqualFold(s.Table, table) {
			return nil, false
		}
		return whereShardExprs(s.Where, []string{s.Table}, column)
	case *Select:
		names := tableNames(s, table)
		if len(names) == 0 {
			return nil, false
		}
		return whereShardExprs(s.Where, names, column)
	default:
		return nil, false
	}
}

// tableNames collects the qualifiers (table name and alias) under which table
// is visible in sel, or nil when sel does not reference it.
func tableNames(sel *Select, table string) []string {
	var names []string
	add := func(tr TableRef) {
		if !strings.EqualFold(tr.Table, table) {
			return
		}
		names = append(names, tr.Table)
		if tr.Alias != "" {
			names = append(names, tr.Alias)
		}
	}
	add(sel.From)
	if sel.Join != nil {
		add(sel.Join.Table)
	}
	return names
}

// whereShardExprs walks the top-level AND conjuncts of where for an equality
// between the shard column and a constant.
func whereShardExprs(where Expr, quals []string, column string) ([]Expr, bool) {
	e, ok := where.(*BinaryExpr)
	if !ok {
		return nil, false
	}
	switch e.Op {
	case OpAnd:
		if exprs, ok := whereShardExprs(e.L, quals, column); ok {
			return exprs, true
		}
		return whereShardExprs(e.R, quals, column)
	case OpEq:
		col, val := e.L, e.R
		if _, isCol := col.(*ColRefExpr); !isCol {
			col, val = val, col
		}
		cr, isCol := col.(*ColRefExpr)
		if !isCol || !shardConst(val) || !colMatches(cr, quals, column) {
			return nil, false
		}
		return []Expr{val}, true
	}
	return nil, false
}

// colMatches reports whether cr names the shard column, unqualified or under
// one of the table's visible qualifiers.
func colMatches(cr *ColRefExpr, quals []string, column string) bool {
	if !strings.EqualFold(cr.Column, column) {
		return false
	}
	if cr.Table == "" {
		return true
	}
	for _, q := range quals {
		if strings.EqualFold(cr.Table, q) {
			return true
		}
	}
	return false
}

// shardConst reports whether e evaluates without row context — the property
// that lets the router compute the key before shipping the statement.
func shardConst(e Expr) bool {
	switch x := e.(type) {
	case *IntLit, *StringLit, *ParamExpr:
		return true
	case *NegExpr:
		return shardConst(x.E)
	default:
		return false
	}
}
