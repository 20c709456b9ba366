package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqldb/sqlparse"
)

// env is the evaluation context for expressions: the tables bound by the
// current FROM/JOIN row pair plus statement parameters.
type env struct {
	aliases []string // lower-cased alias (or table name) per bound table
	tabs    []*Table
	rows    []Row
	args    []Value
}

// resolve finds (table position, column position) for a possibly qualified
// column reference.
func (e *env) resolve(table, column string) (int, int, error) {
	if table != "" {
		lt := strings.ToLower(table)
		for ti, a := range e.aliases {
			if a == lt {
				ci, err := e.tabs[ti].colOf(column)
				if err != nil {
					return 0, 0, err
				}
				return ti, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("sqldb: unknown table alias %q", table)
	}
	found := -1
	var fc int
	for ti, t := range e.tabs {
		if ci, err := t.colOf(column); err == nil {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %q", column)
			}
			found, fc = ti, ci
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqldb: unknown column %q", column)
	}
	return found, fc, nil
}

// eval evaluates a non-aggregate expression.
func (e *env) eval(x sqlparse.Expr) (Value, error) {
	switch ex := x.(type) {
	case *sqlparse.IntLit:
		return Int(ex.V), nil
	case *sqlparse.StringLit:
		return String(ex.V), nil
	case *sqlparse.ParamExpr:
		if ex.Index >= len(e.args) {
			return Null(), fmt.Errorf("sqldb: missing argument for placeholder %d", ex.Index+1)
		}
		return e.args[ex.Index], nil
	case *sqlparse.ColRefExpr:
		ti, ci, err := e.resolve(ex.Table, ex.Column)
		if err != nil {
			return Null(), err
		}
		return e.rows[ti][ci], nil
	case *sqlparse.NegExpr:
		v, err := e.eval(ex.E)
		if err != nil {
			return Null(), err
		}
		if v.Kind() == KindInt {
			return Int(-v.AsInt()), nil
		}
		return Float(-v.AsFloat()), nil
	case *sqlparse.BinaryExpr:
		return e.evalBinary(ex)
	default:
		return Null(), fmt.Errorf("sqldb: cannot evaluate %T", x)
	}
}

// EvalConst evaluates a constant expression (sqlparse.Const) against a
// statement's arguments: the value an index probe looks up and the shard
// router hashes. Any other expression is refused.
func EvalConst(e sqlparse.Expr, args []Value) (Value, error) {
	if !sqlparse.Const(e) {
		return Null(), fmt.Errorf("sqldb: %T is not a constant", e)
	}
	return (&env{args: args}).eval(e)
}

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

func (e *env) evalBinary(ex *sqlparse.BinaryExpr) (Value, error) {
	l, err := e.eval(ex.L)
	if err != nil {
		return Null(), err
	}
	if ex.Op == sqlparse.OpAnd && !l.Truthy() {
		return boolVal(false), nil // short circuit
	}
	r, err := e.eval(ex.R)
	if err != nil {
		return Null(), err
	}
	switch ex.Op {
	case sqlparse.OpAnd:
		return boolVal(r.Truthy()), nil
	case sqlparse.OpEq:
		return boolVal(Equal(l, r)), nil
	case sqlparse.OpLike:
		if l.IsNull() || r.IsNull() {
			return boolVal(false), nil
		}
		return boolVal(likeMatch(l.AsString(), r.AsString())), nil
	case sqlparse.OpAdd, sqlparse.OpSub:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if l.Kind() == KindInt && r.Kind() == KindInt {
			if ex.Op == sqlparse.OpSub {
				return Int(l.AsInt() - r.AsInt()), nil
			}
			return Int(l.AsInt() + r.AsInt()), nil
		}
		if ex.Op == sqlparse.OpSub {
			return Float(l.AsFloat() - r.AsFloat()), nil
		}
		return Float(l.AsFloat() + r.AsFloat()), nil
	default:
		return Null(), fmt.Errorf("sqldb: unsupported operator %v", ex.Op)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte).
// It runs once per scanned row of a LIKE search, so it allocates nothing:
// a % first matches the empty run, and on a later mismatch the match
// resumes after the last % seen with that run one byte longer. Returning to
// the last % alone suffices — whatever an earlier % could absorb, the last
// one can absorb too — so the walk is O(len(s)·len(pattern)) at worst.
func likeMatch(s, pattern string) bool {
	i, j := 0, 0
	star, run := -1, 0 // the last % in pattern, and the end in s of the run it absorbs
	for i < len(s) {
		switch {
		case j < len(pattern) && pattern[j] == '%':
			star, run = j, i
			j++
		case j < len(pattern) && (pattern[j] == '_' || pattern[j] == s[i]):
			i++
			j++
		case star >= 0:
			run++
			i, j = run, star+1
		default:
			return false
		}
	}
	for j < len(pattern) && pattern[j] == '%' {
		j++
	}
	return j == len(pattern)
}

// ---- INSERT / UPDATE / DELETE ----

// execInsert applies an INSERT to t — the committed table, or a
// transaction's fork of it. A row that fails leaves the rows before it, and
// the counters it drew itself, in place; what becomes of them is the
// caller's policy (db.go execDML, txn.go execTxnDML).
func execInsert(t *Table, st *sqlparse.Insert, args []Value) (*Result, error) {
	colPos := make([]int, len(st.Columns))
	for i, c := range st.Columns {
		p, err := t.colOf(c)
		if err != nil {
			return nil, err
		}
		colPos[i] = p
	}
	ev := &env{args: args}
	res := &Result{}
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(colPos) {
			return nil, fmt.Errorf("sqldb: %d values for %d columns in INSERT into %q",
				len(exprRow), len(colPos), t.name)
		}
		row := make(Row, len(t.columns))
		provided := make([]bool, len(t.columns))
		for i, ex := range exprRow {
			v, err := ev.eval(ex)
			if err != nil {
				return nil, err
			}
			row[colPos[i]] = coerce(v, t.columns[colPos[i]].Type)
			provided[colPos[i]] = true
		}
		for i, c := range t.columns {
			if c.AutoIncrement && (!provided[i] || row[i].IsNull()) {
				row[i] = Int(t.assignAI())
				res.LastInsertID = row[i].AsInt()
			} else if c.AutoIncrement && provided[i] {
				t.noteExplicitAI(row[i].AsInt())
				res.LastInsertID = row[i].AsInt()
			}
		}
		if _, err := t.insert(row); err != nil {
			return nil, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// coerce converts a value to the column's declared type (MySQL-style weak
// typing keeps the benchmarks' string/number mixing working).
func coerce(v Value, t sqlparse.ColType) Value {
	if v.IsNull() {
		return v
	}
	switch t {
	case sqlparse.TypeInt:
		return Int(v.AsInt())
	case sqlparse.TypeFloat:
		return Float(v.AsFloat())
	default:
		return String(v.AsString())
	}
}

// execUpdate applies an UPDATE, row by row in rowid order. Like the WHERE
// clause (matchRows), every SET value's columns must resolve whether or not
// a row matches.
func execUpdate(t *Table, st *sqlparse.Update, args []Value) (*Result, error) {
	ev := &env{aliases: []string{t.name}, tabs: []*Table{t}, rows: make([]Row, 1), args: args}
	setPos := make([]int, len(st.Set))
	for i, a := range st.Set {
		p, err := t.colOf(a.Column)
		if err != nil {
			return nil, err
		}
		if err := validateCols(a.Value, ev); err != nil {
			return nil, err
		}
		setPos[i] = p
	}
	matches, err := matchRows(t, st.Where, args)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, m := range matches {
		ev.rows[0] = m.r
		set := make(map[int]Value, len(st.Set))
		for i, a := range st.Set {
			v, err := ev.eval(a.Value)
			if err != nil {
				return nil, err
			}
			set[setPos[i]] = coerce(v, t.columns[setPos[i]].Type)
		}
		if err := t.update(m.id, m.r, set); err != nil {
			return nil, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// execDelete applies a DELETE.
func execDelete(t *Table, st *sqlparse.Delete, args []Value) (*Result, error) {
	matches, err := matchRows(t, st.Where, args)
	if err != nil {
		return nil, err
	}
	for _, m := range matches {
		t.deleteRow(m.id, m.r)
	}
	return &Result{RowsAffected: int64(len(matches))}, nil
}

// match is a row a statement selected, with its rowid.
type match struct {
	id int64
	r  Row
}

// matchRows returns the rows satisfying where (all rows when where is nil),
// in rowid order, using an index for a top-level equality conjunct when it
// can. They are collected before the caller writes any of them. As for a
// SELECT, an unknown column fails the statement even when no row is read,
// so whether it fails never depends on which rows the table holds.
func matchRows(t *Table, where sqlparse.Expr, args []Value) ([]match, error) {
	var out []match
	ev := &env{aliases: []string{t.name}, tabs: []*Table{t}, rows: make([]Row, 1), args: args}
	if err := validateCols(where, ev); err != nil {
		return nil, err
	}
	err := eachCandidate(t, t.name, where, args, func(id int64, r Row) error {
		if where != nil {
			ev.rows[0] = r
			v, err := ev.eval(where)
			if err != nil || !v.Truthy() {
				return err
			}
		}
		out = append(out, match{id, r})
		return nil
	})
	return out, err
}

// eachCandidate calls fn, in rowid order until it fails, with the rows of t
// (bound in the statement as name: its alias, or its own name) that where
// may select: those an index probe returns for a top-level equality conjunct
// on an indexed column when the index can answer it (Table.probe), every row
// otherwise. fn still evaluates where: the probe narrows what it sees, it
// does not decide.
func eachCandidate(t *Table, name string, where sqlparse.Expr, args []Value, fn func(id int64, r Row) error) error {
	ix, v, err := equalityProbe(t, name, where, args)
	if err != nil {
		return err
	}
	if ix != nil && t.probe(ix, v, func(id int64, r Row) bool { err = fn(id, r); return err == nil }) {
		return err
	}
	return t.scan(fn)
}

// equalityProbe finds the first top-level equality conjunct of where between
// an indexed column of t and a constant, and returns that index and the
// constant's value; ix is nil when there is none. t is bound as name. A
// qualified column is t's only when t is unaliased (name is t's own name)
// and the qualifier is that name: an aliased table is scanned, never probed
// by a qualified column, so a joined table that takes t's name as its alias
// cannot narrow t by its own predicate.
func equalityProbe(t *Table, name string, where sqlparse.Expr, args []Value) (ix *index, v Value, err error) {
	sqlparse.Equalities(where, func(cr *sqlparse.ColRefExpr, val sqlparse.Expr) bool {
		if cr.Table != "" && (name != t.name || !strings.EqualFold(cr.Table, name)) {
			return false
		}
		ci, cerr := t.colOf(cr.Column)
		if cerr != nil {
			return false // not this table's column
		}
		if v, err = EvalConst(val, args); err != nil {
			return true
		}
		ix = t.indexOn(ci)
		return ix != nil
	})
	return ix, v, err
}

// ---- SELECT ----

func execSelect(tabs []*Table, st *sqlparse.Select, args []Value) (*Result, error) {
	aliases := []string{strings.ToLower(st.From.Name())}
	if st.Join != nil {
		aliases = append(aliases, strings.ToLower(st.Join.Table.Name()))
	}
	ev := &env{aliases: aliases, tabs: tabs, args: args,
		rows: make([]Row, len(tabs))}

	// Plan-time validation: every column reference must resolve even when
	// no rows flow (real engines reject unknown columns regardless).
	var exprs []sqlparse.Expr
	for _, c := range st.Columns {
		exprs = append(exprs, c)
	}
	if st.Where != nil {
		exprs = append(exprs, st.Where)
	}
	if st.OrderBy != nil {
		exprs = append(exprs, st.OrderBy.Col)
	}
	for _, x := range exprs {
		if err := validateCols(x, ev); err != nil {
			return nil, err
		}
	}
	var on [2]slot // the ON columns' (table, column) slots
	if st.Join != nil {
		for i, cr := range []*sqlparse.ColRefExpr{st.Join.L, st.Join.R} {
			ti, ci, err := ev.resolve(cr.Table, cr.Column)
			if err != nil {
				return nil, err
			}
			on[i] = slot{ti, ci}
		}
	}

	// A COUNT(*) select only counts the rows that qualify.
	var n int64

	res := &Result{Columns: outputColumns(st, tabs[0])}
	// For a projection, the ORDER BY key is evaluated against the bound
	// rows at emit time so it may name a column outside the select list
	// (e.g. SELECT name FROM items ORDER BY price).
	var sortKeys []Value

	// Result rows are carved from slab allocations rather than one slice per
	// row; stored rows are immutable (updates are copy-on-write), so a
	// SELECT * (one table) shares them outright with no copy at all.
	// Slabs start at one row and double up to 64 rows per allocation: a
	// point lookup pays for exactly one row, a big scan amortizes to a
	// handful of allocations.
	var slab []Value
	slabRows := 1
	newRow := func(w int) Row {
		if w > len(slab) {
			slab = make([]Value, slabRows*w)
			if slabRows < 64 {
				slabRows *= 2
			}
		}
		r := Row(slab[:0:w])
		slab = slab[w:]
		return r
	}
	// qualify emits the bound rows when WHERE holds for them.
	qualify := func() error {
		if st.Where != nil {
			v, err := ev.eval(st.Where)
			if err != nil || !v.Truthy() {
				return err
			}
		}
		if st.Count {
			n++
			return nil
		}
		out := ev.rows[0]
		if !st.Star {
			out = newRow(len(res.Columns))
			for _, c := range st.Columns {
				v, err := ev.eval(c)
				if err != nil {
					return err
				}
				out = append(out, v)
			}
		}
		if st.OrderBy != nil {
			v, err := ev.eval(st.OrderBy.Col)
			if err != nil {
				return err
			}
			sortKeys = append(sortKeys, v)
		}
		res.Rows = append(res.Rows, out)
		return nil
	}

	// The joined table's rows for the outer row: a probe of the index on
	// its ON column with the outer row's value when the ON pairs the two
	// tables and an index covers it and can answer for that value, a scan
	// otherwise.
	inner := qualify
	if st.Join != nil {
		jt := tabs[1]
		outer, own := on[0], on[1]
		if outer.tab == 1 {
			outer, own = own, outer
		}
		var ix *index
		if outer.tab == 0 && own.tab == 1 {
			ix = jt.indexOn(own.col)
		}
		inner = func() error {
			if ix != nil {
				var err error
				if jt.probe(ix, ev.rows[0][outer.col], func(_ int64, r Row) bool {
					ev.rows[1] = r
					err = qualify()
					return err == nil
				}) {
					return err
				}
			}
			return jt.scan(func(_ int64, r Row) error {
				ev.rows[1] = r
				if !Equal(ev.rows[on[0].tab][on[0].col], ev.rows[on[1].tab][on[1].col]) {
					return nil
				}
				return qualify()
			})
		}
	}
	// The FROM table's candidates come from its WHERE equalities. Index
	// runs are walked in place: nobody writes what a SELECT reads.
	if err := eachCandidate(tabs[0], aliases[0], st.Where, args, func(_ int64, r Row) error {
		ev.rows[0] = r
		return inner()
	}); err != nil {
		return nil, err
	}

	if st.Count {
		res.Rows = []Row{{Int(n)}}
	} else {
		orderRows(res, st.OrderBy, sortKeys)
	}
	if st.Limit >= 0 && st.Limit < len(res.Rows) {
		res.Rows = res.Rows[:st.Limit]
	}
	return res, nil
}

// slot is where a column reference reads: bound table tab, column col.
type slot struct{ tab, col int }

// validateCols resolves every column reference in e against the bound
// tables, returning an error for unknown or ambiguous names.
func validateCols(e sqlparse.Expr, ev *env) error {
	switch x := e.(type) {
	case *sqlparse.ColRefExpr:
		_, _, err := ev.resolve(x.Table, x.Column)
		return err
	case *sqlparse.BinaryExpr:
		if err := validateCols(x.L, ev); err != nil {
			return err
		}
		return validateCols(x.R, ev)
	case *sqlparse.NegExpr:
		return validateCols(x.E, ev)
	default:
		return nil
	}
}

func outputColumns(st *sqlparse.Select, from *Table) []string {
	switch {
	case st.Star:
		cols := make([]string, len(from.columns))
		for i, c := range from.columns {
			cols[i] = c.Name
		}
		return cols
	case st.Count:
		return []string{"count"}
	}
	cols := make([]string, len(st.Columns))
	for i, c := range st.Columns {
		cols[i] = c.Column
	}
	return cols
}

// ---- ordering ----

// orderRows sorts a projection's result by the key captured at emit time.
func orderRows(res *Result, by *sqlparse.OrderItem, sortKeys []Value) {
	if by == nil {
		return
	}
	idx := make([]int, len(res.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		c := Compare(sortKeys[idx[a]], sortKeys[idx[b]])
		if by.Desc {
			return c > 0
		}
		return c < 0
	})
	rows := make([]Row, len(res.Rows))
	for i, j := range idx {
		rows[i] = res.Rows[j]
	}
	res.Rows = rows
}
