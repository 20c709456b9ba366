package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqldb/sqlparse"
)

// env is the evaluation context for expressions: the tables bound by the
// current FROM/JOIN row combination plus statement parameters.
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
	case *sqlparse.FloatLit:
		return Float(ex.V), nil
	case *sqlparse.StringLit:
		return String(ex.V), nil
	case *sqlparse.NullLit:
		return Null(), nil
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
	case *sqlparse.NotExpr:
		v, err := e.eval(ex.E)
		if err != nil {
			return Null(), err
		}
		return boolVal(!v.Truthy()), nil
	case *sqlparse.IsNullExpr:
		v, err := e.eval(ex.E)
		if err != nil {
			return Null(), err
		}
		return boolVal(v.IsNull() != ex.Not), nil
	case *sqlparse.BetweenExpr:
		v, err := e.eval(ex.E)
		if err != nil {
			return Null(), err
		}
		lo, err := e.eval(ex.Lo)
		if err != nil {
			return Null(), err
		}
		hi, err := e.eval(ex.Hi)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return boolVal(false), nil
		}
		return boolVal(Compare(v, lo) >= 0 && Compare(v, hi) <= 0), nil
	case *sqlparse.InExpr:
		v, err := e.eval(ex.E)
		if err != nil {
			return Null(), err
		}
		match := false
		for _, item := range ex.List {
			iv, err := e.eval(item)
			if err != nil {
				return Null(), err
			}
			if Equal(v, iv) {
				match = true
				break
			}
		}
		return boolVal(match != ex.Not), nil
	case *sqlparse.BinaryExpr:
		return e.evalBinary(ex)
	default:
		return Null(), fmt.Errorf("sqldb: cannot evaluate %T", x)
	}
}

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

func (e *env) evalBinary(ex *sqlparse.BinaryExpr) (Value, error) {
	// Short-circuit logic operators.
	switch ex.Op {
	case sqlparse.OpAnd:
		l, err := e.eval(ex.L)
		if err != nil {
			return Null(), err
		}
		if !l.Truthy() {
			return boolVal(false), nil
		}
		r, err := e.eval(ex.R)
		if err != nil {
			return Null(), err
		}
		return boolVal(r.Truthy()), nil
	case sqlparse.OpOr:
		l, err := e.eval(ex.L)
		if err != nil {
			return Null(), err
		}
		if l.Truthy() {
			return boolVal(true), nil
		}
		r, err := e.eval(ex.R)
		if err != nil {
			return Null(), err
		}
		return boolVal(r.Truthy()), nil
	}
	l, err := e.eval(ex.L)
	if err != nil {
		return Null(), err
	}
	r, err := e.eval(ex.R)
	if err != nil {
		return Null(), err
	}
	switch ex.Op {
	case sqlparse.OpEq:
		return boolVal(Equal(l, r)), nil
	case sqlparse.OpNe:
		return boolVal(!l.IsNull() && !r.IsNull() && Compare(l, r) != 0), nil
	case sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		if l.IsNull() || r.IsNull() {
			return boolVal(false), nil
		}
		c := Compare(l, r)
		switch ex.Op {
		case sqlparse.OpLt:
			return boolVal(c < 0), nil
		case sqlparse.OpLe:
			return boolVal(c <= 0), nil
		case sqlparse.OpGt:
			return boolVal(c > 0), nil
		default:
			return boolVal(c >= 0), nil
		}
	case sqlparse.OpLike:
		if l.IsNull() || r.IsNull() {
			return boolVal(false), nil
		}
		return boolVal(likeMatch(l.AsString(), r.AsString())), nil
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if l.Kind() == KindInt && r.Kind() == KindInt && ex.Op != sqlparse.OpDiv {
			a, b := l.AsInt(), r.AsInt()
			switch ex.Op {
			case sqlparse.OpAdd:
				return Int(a + b), nil
			case sqlparse.OpSub:
				return Int(a - b), nil
			default:
				return Int(a * b), nil
			}
		}
		a, b := l.AsFloat(), r.AsFloat()
		switch ex.Op {
		case sqlparse.OpAdd:
			return Float(a + b), nil
		case sqlparse.OpSub:
			return Float(a - b), nil
		case sqlparse.OpMul:
			return Float(a * b), nil
		default:
			if b == 0 {
				return Null(), nil // MySQL: division by zero yields NULL
			}
			return Float(a / b), nil
		}
	default:
		return Null(), fmt.Errorf("sqldb: unsupported operator %v", ex.Op)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte).
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match over bytes.
	n, m := len(s), len(pattern)
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		pc := pattern[j-1]
		cur[0] = prev[0] && pc == '%'
		for i := 1; i <= n; i++ {
			switch pc {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == pc
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// ---- INSERT / UPDATE / DELETE ----

// execInsert applies an INSERT to t — the committed table, or a
// transaction's fork of it. A row that fails leaves the rows before it, and
// the counters it drew itself, in place; what becomes of them is the
// caller's policy (db.go execDML, txn.go execTxnDML).
func execInsert(t *Table, st *sqlparse.Insert, args []Value) (*Result, error) {
	cols := st.Columns
	if len(cols) == 0 {
		cols = make([]string, len(t.columns))
		for i, c := range t.columns {
			cols[i] = c.Name
		}
	}
	colPos := make([]int, len(cols))
	for i, c := range cols {
		p, err := t.colOf(c)
		if err != nil {
			return nil, err
		}
		colPos[i] = p
	}
	ev := &env{args: args}
	res := &Result{}
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("sqldb: %d values for %d columns in INSERT into %q",
				len(exprRow), len(cols), t.name)
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

// execUpdate applies an UPDATE, row by row in rowid order.
func execUpdate(t *Table, st *sqlparse.Update, args []Value) (*Result, error) {
	setPos := make([]int, len(st.Set))
	for i, a := range st.Set {
		p, err := t.colOf(a.Column)
		if err != nil {
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
		ev := &env{aliases: []string{t.name}, tabs: []*Table{t}, rows: []Row{m.r}, args: args}
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
// can. They are collected before the caller writes any of them.
func matchRows(t *Table, where sqlparse.Expr, args []Value) ([]match, error) {
	var out []match
	ev := &env{aliases: []string{t.name}, tabs: []*Table{t}, rows: make([]Row, 1), args: args}
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
	be, ok := where.(*sqlparse.BinaryExpr)
	if !ok {
		return nil, v, nil
	}
	switch be.Op {
	case sqlparse.OpAnd:
		if ix, v, err = equalityProbe(t, name, be.L, args); ix != nil || err != nil {
			return ix, v, err
		}
		return equalityProbe(t, name, be.R, args)
	case sqlparse.OpEq:
		col, val := be.L, be.R
		if _, isCol := col.(*sqlparse.ColRefExpr); !isCol {
			col, val = val, col
		}
		cr, isCol := col.(*sqlparse.ColRefExpr)
		if !isCol || !constExpr(val) {
			return nil, v, nil
		}
		if cr.Table != "" && (name != t.name || !strings.EqualFold(cr.Table, name)) {
			return nil, v, nil
		}
		ci, err := t.colOf(cr.Column)
		if err != nil {
			return nil, v, nil // not this table's column
		}
		if v, err = (&env{args: args}).eval(val); err != nil {
			return nil, v, err
		}
		return t.indexOn(ci), v, nil
	}
	return nil, v, nil
}

// constExpr reports whether e evaluates without row context.
func constExpr(e sqlparse.Expr) bool {
	switch ex := e.(type) {
	case *sqlparse.IntLit, *sqlparse.FloatLit, *sqlparse.StringLit,
		*sqlparse.NullLit, *sqlparse.ParamExpr:
		return true
	case *sqlparse.NegExpr:
		return constExpr(ex.E)
	default:
		return false
	}
}

// ---- SELECT ----

func execSelect(tabs []*Table, st *sqlparse.Select, args []Value) (*Result, error) {
	aliases := []string{strings.ToLower(st.From.Name())}
	for _, j := range st.Joins {
		aliases = append(aliases, strings.ToLower(j.Table.Name()))
	}
	ev := &env{aliases: aliases, tabs: tabs, args: args,
		rows: make([]Row, len(tabs))}

	// Plan-time validation: every column reference must resolve even when
	// no rows flow (real engines reject unknown columns regardless).
	var exprs []sqlparse.Expr
	for _, it := range st.Items {
		exprs = append(exprs, it.Expr)
	}
	if st.Where != nil {
		exprs = append(exprs, st.Where)
	}
	for _, oi := range st.OrderBy {
		// ORDER BY may name a select-list alias instead of a table column.
		if cr, ok := oi.Expr.(*sqlparse.ColRefExpr); ok && cr.Table == "" {
			if outputIndex(outputColumns(st, tabs), cr.Column) >= 0 {
				continue
			}
		}
		exprs = append(exprs, oi.Expr)
	}
	for _, j := range st.Joins {
		exprs = append(exprs, j.On)
	}
	for _, x := range exprs {
		if err := validateCols(x, ev); err != nil {
			return nil, err
		}
	}

	// A COUNT(*) select only counts the rows that qualify.
	count := st.IsCount()
	var n int64

	res := &Result{Columns: outputColumns(st, tabs)}
	// For a projection, ORDER BY keys are evaluated against the
	// bound rows at emit time so they may name columns outside the select
	// list (e.g. SELECT name FROM items ORDER BY price).
	var sortKeys [][]Value

	// Result rows are carved from slab allocations rather than one slice per
	// row; stored rows are immutable (updates are copy-on-write), so a
	// single-table SELECT * shares them outright with no copy at all.
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
	emit := func() error {
		if count {
			n++
			return nil
		}
		var out Row
		if st.Star {
			if len(ev.rows) == 1 {
				out = ev.rows[0]
			} else {
				out = newRow(len(res.Columns))
				for _, r := range ev.rows {
					out = append(out, r...)
				}
			}
		} else {
			out = newRow(len(res.Columns))
			for _, it := range st.Items {
				v, err := ev.eval(it.Expr)
				if err != nil {
					return err
				}
				out = append(out, v)
			}
		}
		if len(st.OrderBy) > 0 {
			keys := make([]Value, len(st.OrderBy))
			for i, oi := range st.OrderBy {
				v, err := ev.eval(oi.Expr)
				if err != nil {
					// The key may be a select-list alias (SELECT price AS p
					// ... ORDER BY p): fall back to the output value.
					cr, ok := oi.Expr.(*sqlparse.ColRefExpr)
					if !ok || cr.Table != "" {
						return err
					}
					idx := outputIndex(res.Columns, cr.Column)
					if idx < 0 || st.Star {
						return err
					}
					v = out[idx]
				}
				keys[i] = v
			}
			sortKeys = append(sortKeys, keys)
		}
		res.Rows = append(res.Rows, out)
		return nil
	}

	// Nested-loop join over From and Joins, index-accelerated on the From
	// table's WHERE equalities and each join's ON equality. How a join
	// level is entered depends on the statement, not on the outer row, so
	// it is worked out here, once.
	probes := make([]joinProbe, len(tabs))
	for level := 1; level < len(tabs); level++ {
		probes[level] = joinLookup(ev, level, st.Joins[level-1].On)
	}
	var joinLevel func(level int) error
	joinLevel = func(level int) error {
		if level == len(tabs) {
			if st.Where != nil {
				v, err := ev.eval(st.Where)
				if err != nil {
					return err
				}
				if !v.Truthy() {
					return nil
				}
			}
			return emit()
		}
		t := tabs[level]
		// Index runs are walked in place: nobody writes what a SELECT reads.
		if level == 0 {
			return eachCandidate(t, ev.aliases[0], st.Where, args, func(_ int64, r Row) error {
				ev.rows[0] = r
				return joinLevel(1)
			})
		}
		// Join level: probe with the ON equality's outer value when an index
		// covers it and can answer for that value, scan otherwise.
		on := st.Joins[level-1].On
		if p := probes[level]; p.ix != nil {
			var err error
			if t.probe(p.ix, ev.rows[p.tab][p.col], func(_ int64, r Row) bool {
				ev.rows[level] = r
				err = joinLevel(level + 1)
				return err == nil
			}) {
				return err
			}
		}
		return t.scan(func(_ int64, r Row) error {
			ev.rows[level] = r
			okv, err := (&env{aliases: ev.aliases[:level+1], tabs: ev.tabs[:level+1],
				rows: ev.rows[:level+1], args: args}).eval(on)
			if err != nil {
				return err
			}
			if !okv.Truthy() {
				return nil
			}
			return joinLevel(level + 1)
		})
	}
	if err := joinLevel(0); err != nil {
		return nil, err
	}

	if count {
		row := make(Row, len(st.Items))
		for i := range row {
			row[i] = Int(n)
		}
		res.Rows = []Row{row}
	} else {
		orderRows(res, st, sortKeys)
	}
	if st.Limit >= 0 && st.Limit < len(res.Rows) {
		res.Rows = res.Rows[:st.Limit]
	}
	return res, nil
}

// joinProbe is how a join level finds its rows by index: probe ix with the
// value of column col of the already-bound table tab. ix is nil when the
// level has to scan.
type joinProbe struct {
	ix       *index
	tab, col int
}

// joinLookup resolves "a.x = b.y" where one side references the level's
// table on an indexed column and the other references an already-bound
// table.
func joinLookup(ev *env, level int, on sqlparse.Expr) (none joinProbe) {
	be, ok := on.(*sqlparse.BinaryExpr)
	if !ok || be.Op != sqlparse.OpEq {
		return none
	}
	lc, lok := be.L.(*sqlparse.ColRefExpr)
	rc, rok := be.R.(*sqlparse.ColRefExpr)
	if !lok || !rok {
		return none
	}
	levelAlias := ev.aliases[level]
	var newSide, boundSide *sqlparse.ColRefExpr
	switch {
	case strings.EqualFold(lc.Table, levelAlias):
		newSide, boundSide = lc, rc
	case strings.EqualFold(rc.Table, levelAlias):
		newSide, boundSide = rc, lc
	default:
		return none
	}
	ci, err := ev.tabs[level].colOf(newSide.Column)
	if err != nil {
		return none
	}
	bi, bc, err := (&env{aliases: ev.aliases[:level], tabs: ev.tabs[:level]}).resolve(boundSide.Table, boundSide.Column)
	if err != nil {
		return none
	}
	return joinProbe{ix: ev.tabs[level].indexOn(ci), tab: bi, col: bc}
}

// validateCols resolves every column reference in e against the bound
// tables, returning an error for unknown or ambiguous names. ORDER BY
// references may also name select-list aliases, which resolve later, so
// callers pass only structural expressions here; aliases are cheap to
// accept by ignoring resolution failures for bare ORDER BY columns — the
// executor reports them precisely when actually evaluated.
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
	case *sqlparse.NotExpr:
		return validateCols(x.E, ev)
	case *sqlparse.NegExpr:
		return validateCols(x.E, ev)
	case *sqlparse.IsNullExpr:
		return validateCols(x.E, ev)
	case *sqlparse.BetweenExpr:
		if err := validateCols(x.E, ev); err != nil {
			return err
		}
		if err := validateCols(x.Lo, ev); err != nil {
			return err
		}
		return validateCols(x.Hi, ev)
	case *sqlparse.InExpr:
		if err := validateCols(x.E, ev); err != nil {
			return err
		}
		for _, item := range x.List {
			if err := validateCols(item, ev); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

func outputColumns(st *sqlparse.Select, tabs []*Table) []string {
	if st.Star {
		var cols []string
		for _, t := range tabs {
			for _, c := range t.Columns() {
				cols = append(cols, c.Name)
			}
		}
		return cols
	}
	cols := make([]string, len(st.Items))
	for i, it := range st.Items {
		switch {
		case it.Alias != "":
			cols[i] = it.Alias
		default:
			if cr, ok := it.Expr.(*sqlparse.ColRefExpr); ok {
				cols[i] = cr.Column
			} else if _, ok := it.Expr.(*sqlparse.AggExpr); ok {
				cols[i] = "count"
			} else {
				cols[i] = fmt.Sprintf("expr%d", i+1)
			}
		}
	}
	return cols
}

// ---- ordering ----

// orderRows sorts a projection's result by the keys captured at emit time.
func orderRows(res *Result, st *sqlparse.Select, sortKeys [][]Value) {
	if len(st.OrderBy) == 0 {
		return
	}
	idx := make([]int, len(res.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
		for k, oi := range st.OrderBy {
			c := Compare(ka[k], kb[k])
			if c == 0 {
				continue
			}
			if oi.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	rows := make([]Row, len(res.Rows))
	for i, j := range idx {
		rows[i] = res.Rows[j]
	}
	res.Rows = rows
}

func outputIndex(cols []string, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}
