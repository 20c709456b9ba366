// Horizontal sharding (DESIGN.md §11): a sharded Client partitions tables
// across N independent replication clusters ("shard groups") by a per-table
// key column, composing with everything below it — each shard is a full
// ROWA cluster (M replicas, ejection, rejoin, its own query cache), so a
// "2x3" topology is two shards of three replicas each.
//
// Routing, in decreasing order of preference:
//
//   - Single-shard: the statement provably touches rows of one shard
//     (shardkey.go extracts the key expressions; hashing them at execution
//     time agrees on one shard). It ships to that shard's client alone —
//     the scaling fast path, for writes especially: a pinned write costs
//     one shard's broadcast instead of every replica in the system.
//   - Scatter-gather: a SELECT not pinned to one shard fans out to every
//     shard and the partial results merge client-side — concatenate,
//     re-sort by the ORDER BY, re-apply DISTINCT/LIMIT/OFFSET, and combine
//     no-GROUP-BY aggregates (COUNT/SUM by summing, MIN/MAX by comparing).
//     GROUP BY and AVG over sharded tables are rejected rather than
//     silently miscomputed.
//   - Broadcast: writes to global (unsharded) tables, unpinned
//     UPDATE/DELETE on sharded tables (each shard only owns disjoint rows,
//     so applying everywhere is exact), and DDL run on every shard under a
//     shard-set-wide write-order lock, so cross-shard statements land in
//     one global order on every shard.
//
// Id assignment: a CREATE TABLE for a sharded table automatically strides
// that table's AUTO_INCREMENT (shard i of n counts i+1, i+1+n, i+1+2n, ...),
// so generated ids hash back to the shard that created the row — and a row
// keyed by another sharded table's generated id (order_line by order_id)
// colocates with its parent, because the parent's id carries its shard's
// congruence class.
//
// Transactions: a sharded Session coordinates one sub-session per
// participating shard, opened lazily as statements pin shards (in ascending
// shard order, which is what excludes cross-transaction deadlock on the
// per-shard write-order locks). COMMIT with more than one participant runs
// two-phase commit: PREPARE TRANSACTION on every participant (protocol v4,
// PROTOCOL.md §8) and only then COMMIT everywhere; any prepare failure
// aborts every shard, so no shard commits unless all can.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
)

// ParseShardDSN splits a DSN into shard groups: shards separated by ';',
// replicas within a shard by ','. "a:1,a:2;b:1,b:2" is two shards of two
// replicas each. A DSN with no ';' is one group — an unsharded cluster.
func ParseShardDSN(dsn string) [][]string {
	var groups [][]string
	for _, g := range strings.Split(dsn, ";") {
		if addrs := ParseDSN(g); len(addrs) > 0 {
			groups = append(groups, addrs)
		}
	}
	return groups
}

// shardSet is the sharded client's routing core: the per-shard inner
// clients, the table→key map, and the memoized per-statement plans.
type shardSet struct {
	shards  []*Client
	byTable map[string]string // lower-cased table -> shard key column
	// outer serializes cross-shard broadcasts (global-table writes, DDL)
	// over the full address set, so every shard applies them in one order.
	// Single-shard statements never touch it — the owning shard's own
	// write-order locks suffice, because shards own disjoint rows.
	outer *writeLocks
	addrs []string
	plans sync.Map // query text -> *shardPlan
	rr    atomic.Uint64

	single    atomic.Int64 // statements routed to one owning shard
	scatter   atomic.Int64 // scatter-gather SELECT fan-outs
	broadcast atomic.Int64 // cross-shard broadcast writes/DDL
	txns2pc   atomic.Int64 // transactions committed via two-phase commit

	// betweenPhases, when set (tests), runs between 2PC's PREPARE and
	// COMMIT phases — the in-doubt window chaos tests kill replicas in.
	betweenPhases func()
}

// newSharded builds a sharded Client: one inner cluster client per shard
// group (each with its own pools, health tracking and query cache) behind
// a thin routing facade. The outer client's own query cache stays nil —
// pinned statements hit the owning shard's cache, and cross-shard merges
// are recomputed (their invalidation scope spans shards).
func newSharded(cfg Config, groups [][]string) *Client {
	var all []string
	for _, g := range groups {
		all = append(all, g...)
	}
	sh := &shardSet{
		byTable: make(map[string]string, len(cfg.ShardBy)),
		outer:   acquireWriteLocks(all),
		addrs:   all,
	}
	for t, col := range cfg.ShardBy {
		sh.byTable[strings.ToLower(t)] = strings.ToLower(col)
	}
	for _, g := range groups {
		sub := cfg
		sub.DSN = strings.Join(g, ",")
		sh.shards = append(sh.shards, NewWithConfig(sub))
	}
	return &Client{sh: sh, locks: sh.outer}
}

func (sh *shardSet) rrNext() int { return int(sh.rr.Add(1) % uint64(len(sh.shards))) }

// shardPlan is the memoized routing decision for one statement text: its
// kind, whether it references a sharded table, and — when the predicate
// structure pins every touched row — the shard-key expressions to hash.
type shardPlan struct {
	rt      route
	stmt    sqlparse.Statement
	sel     *sqlparse.Select // non-nil for parsed SELECTs
	insert  bool
	sharded bool            // references at least one sharded table
	exprs   []sqlparse.Expr // nil: not pinned (scatter / broadcast)
}

func (sh *shardSet) planOf(c *Client, query string) *shardPlan {
	if v, ok := sh.plans.Load(query); ok {
		return v.(*shardPlan)
	}
	p := sh.buildPlan(c, query)
	sh.plans.Store(query, p)
	return p
}

func (sh *shardSet) buildPlan(c *Client, query string) *shardPlan {
	p := &shardPlan{rt: c.routes.of(query)}
	st, err := sqlparse.Parse(query)
	if err != nil {
		// Unparsable: reads run on one shard, writes broadcast under the
		// route's (catch-all) tables — conservative, never wrong.
		return p
	}
	p.stmt = st
	var refs []sqlparse.TableRef
	switch st := st.(type) {
	case *sqlparse.Select:
		p.sel = st
		refs = append(refs, st.From)
		for _, j := range st.Joins {
			refs = append(refs, j.Table)
		}
	case *sqlparse.Insert:
		p.insert = true
		refs = append(refs, sqlparse.TableRef{Table: st.Table})
	case *sqlparse.Update:
		refs = append(refs, sqlparse.TableRef{Table: st.Table})
	case *sqlparse.Delete:
		refs = append(refs, sqlparse.TableRef{Table: st.Table})
	default:
		return p // DDL and the rest broadcast
	}
	// First referenced sharded table whose key the statement pins wins:
	// with colocated tables (order_line by order_id) any pin lands on the
	// same shard, so "first" is a tie-break, not a semantic choice.
	for _, ref := range refs {
		col, sharded := sh.byTable[strings.ToLower(ref.Table)]
		if !sharded {
			continue
		}
		p.sharded = true
		if p.exprs == nil {
			if exprs, ok := sqlparse.ShardExprs(st, ref.Table, col); ok {
				p.exprs = exprs
			}
		}
	}
	return p
}

// shardFor evaluates the plan's key expressions against the call's
// arguments. ok only when every expression resolves and all agree on one
// shard — an IN list spanning shards scatters rather than mis-routing.
func (p *shardPlan) shardFor(args []sqldb.Value, n int) (int, bool) {
	if p.exprs == nil {
		return 0, false
	}
	shard := -1
	for _, e := range p.exprs {
		v, ok := shardValue(e, args)
		if !ok {
			return 0, false
		}
		s := shardIndex(v, n)
		if shard >= 0 && s != shard {
			return 0, false
		}
		shard = s
	}
	return shard, shard >= 0
}

// shardValue resolves one constant key expression: a literal, a '?'
// parameter from args, or a negation of either.
func shardValue(e sqlparse.Expr, args []sqldb.Value) (sqldb.Value, bool) {
	switch x := e.(type) {
	case *sqlparse.IntLit:
		return sqldb.Int(x.V), true
	case *sqlparse.FloatLit:
		return sqldb.Float(x.V), true
	case *sqlparse.StringLit:
		return sqldb.String(x.V), true
	case *sqlparse.ParamExpr:
		if x.Index < 0 || x.Index >= len(args) {
			return sqldb.Null(), false
		}
		return args[x.Index], true
	case *sqlparse.NegExpr:
		v, ok := shardValue(x.E, args)
		if !ok {
			return v, false
		}
		switch v.Kind() {
		case sqldb.KindInt:
			return sqldb.Int(-v.AsInt()), true
		case sqldb.KindFloat:
			return sqldb.Float(-v.AsFloat()), true
		}
		return sqldb.Null(), false
	}
	return sqldb.Null(), false
}

// shardIndex hashes a key value to its owning shard. Integral keys map by
// congruence — shard i of n owns ids ≡ i+1 (mod n) — which is exactly the
// class a strided AUTO_INCREMENT (OFFSET i+1 STRIDE n) assigns, so
// generated ids route back to the shard that generated them. Strings hash
// by FNV-1a.
func shardIndex(v sqldb.Value, n int) int {
	switch v.Kind() {
	case sqldb.KindInt:
		return int(((v.AsInt()-1)%int64(n) + int64(n)) % int64(n))
	case sqldb.KindFloat:
		i := int64(v.AsFloat())
		return int(((i-1)%int64(n) + int64(n)) % int64(n))
	default:
		h := fnv.New32a()
		h.Write([]byte(v.AsString()))
		return int(h.Sum32() % uint32(n))
	}
}

// exec routes one pool-level statement through the shard set.
func (sh *shardSet) exec(c *Client, query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	p := sh.planOf(c, query)
	switch p.rt.kind {
	case kindTxnControl:
		return nil, ErrTxnControlText
	case kindRead:
		if !p.sharded {
			// Global tables are replicated on every shard; any one answers.
			return sh.shards[sh.rrNext()].exec(query, args, cached)
		}
		if shard, ok := p.shardFor(args, len(sh.shards)); ok {
			sh.single.Add(1)
			return sh.shards[shard].exec(query, args, cached)
		}
		sh.scatter.Add(1)
		return sh.scatterRead(p, query, args, cached, nil)
	default: // writes and DDL
		if p.sharded && p.exprs != nil {
			shard, ok := p.shardFor(args, len(sh.shards))
			if !ok && p.insert {
				return nil, errInsertSpansShards
			}
			if ok {
				sh.single.Add(1)
				return sh.shards[shard].exec(query, args, cached)
			}
		}
		if p.sharded && p.insert {
			// Keyless INSERT on a sharded table: any shard may take it —
			// its strided counter assigns an id that hashes back here.
			sh.single.Add(1)
			return sh.shards[sh.rrNext()].exec(query, args, cached)
		}
		return sh.broadcastAll(query, args, cached, p)
	}
}

var errInsertSpansShards = errors.New("cluster: INSERT rows span shards (or the shard key is unresolvable); split the statement per shard")

// scatterRead fans a SELECT out to every shard and merges. subs, when
// non-nil, supplies the per-shard sub-sessions to run on (transactional
// scatter); otherwise each shard's pool path runs it.
func (sh *shardSet) scatterRead(p *shardPlan, query string, args []sqldb.Value, cached bool, subs []*Session) (*sqldb.Result, error) {
	if p.sel == nil {
		// Non-SELECT read (SHOW ...): shard-local answers are equivalent.
		return sh.shards[sh.rrNext()].exec(query, args, cached)
	}
	if len(p.sel.GroupBy) > 0 {
		return nil, errors.New("cluster: GROUP BY across shards is not supported")
	}
	q := scatterQuery(query, p.sel)
	q, extra := appendOrderKeys(q, p.sel)
	results := make([]*sqldb.Result, len(sh.shards))
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i := range sh.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if subs != nil {
				results[i], errs[i] = subs[i].exec(q, args, cached)
			} else {
				results[i], errs[i] = sh.shards[i].exec(q, args, cached)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeScatter(p.sel, results, extra)
}

// appendOrderKeys widens the per-shard select list with ORDER BY key
// columns the statement doesn't already select ("SELECT id FROM items
// ORDER BY end_date") — the merge needs the key values to re-sort, and it
// projects the appended columns back off afterward. DISTINCT selects are
// left alone: standard SQL already requires their ORDER BY keys in the
// select list, and widening would change what "distinct" means per shard.
func appendOrderKeys(query string, sel *sqlparse.Select) (string, int) {
	if sel.Star || sel.Distinct || len(sel.OrderBy) == 0 || isAggSelect(sel) {
		return query, 0
	}
	var missing []string
	for _, o := range sel.OrderBy {
		x, ok := o.Expr.(*sqlparse.ColRefExpr)
		if !ok {
			continue // positional literals resolve; anything else won't rewrite
		}
		if selectItemIndex(sel, x) >= 0 {
			continue
		}
		col := x.Column
		if x.Table != "" {
			col = x.Table + "." + x.Column
		}
		missing = append(missing, col)
	}
	if len(missing) == 0 {
		return query, 0
	}
	i := topLevelFrom(query)
	if i < 0 {
		return query, 0
	}
	return query[:i] + ", " + strings.Join(missing, ", ") + " " + query[i:], len(missing)
}

// topLevelFrom finds the select list's terminating FROM keyword: the first
// word-boundary "FROM" outside string literals and parentheses.
func topLevelFrom(query string) int {
	up := strings.ToUpper(query)
	depth := 0
	var inStr byte
	for i := 0; i < len(up); i++ {
		c := up[i]
		switch {
		case inStr != 0:
			if c == inStr {
				inStr = 0
			}
		case c == '\'' || c == '"':
			inStr = c
		case c == '(':
			depth++
		case c == ')':
			depth--
		case depth == 0 && c == 'F' && strings.HasPrefix(up[i:], "FROM"):
			if i > 0 && isWordByte(up[i-1]) {
				continue
			}
			if i+4 < len(up) && isWordByte(up[i+4]) {
				continue
			}
			return i
		}
	}
	return -1
}

func isWordByte(c byte) bool {
	return c == '_' || ('0' <= c && c <= '9') || ('A' <= c && c <= 'Z') || ('a' <= c && c <= 'z')
}

// scatterQuery rewrites the per-shard text of a windowed scatter: OFFSET
// only means anything against the merged order, so each shard returns its
// first offset+limit rows and the merge re-applies the window globally.
// A plain LIMIT (no OFFSET) is already correct per shard: the global top-k
// is a subset of the union of per-shard top-ks.
func scatterQuery(query string, sel *sqlparse.Select) string {
	if sel.Limit < 0 || sel.Offset <= 0 {
		return query
	}
	i := strings.LastIndex(strings.ToUpper(query), "LIMIT")
	if i < 0 {
		return query
	}
	return query[:i] + fmt.Sprintf("LIMIT %d", sel.Limit+sel.Offset)
}

// mergeScatter combines per-shard partial results into the statement's
// answer: aggregate combination for no-GROUP-BY aggregates, otherwise
// concatenate, re-sort, project off the appendOrderKeys columns (the last
// `extra`), dedup (DISTINCT) and re-window (OFFSET/LIMIT).
func mergeScatter(sel *sqlparse.Select, results []*sqldb.Result, extra int) (*sqldb.Result, error) {
	if isAggSelect(sel) {
		return mergeAggs(sel, results)
	}
	out := &sqldb.Result{Columns: results[0].Columns}
	for _, r := range results {
		out.Rows = append(out.Rows, r.Rows...)
	}
	if len(sel.OrderBy) > 0 {
		cols := make([]int, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			c := orderCol(o.Expr, sel, out.Columns)
			if c < 0 {
				return nil, fmt.Errorf("cluster: cannot merge scatter ORDER BY key %d (not in the select list)", i+1)
			}
			cols[i] = c
		}
		sort.SliceStable(out.Rows, func(a, b int) bool {
			for i, c := range cols {
				cmp := sqldb.Compare(out.Rows[a][c], out.Rows[b][c])
				if cmp == 0 {
					continue
				}
				if sel.OrderBy[i].Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}
	if extra > 0 {
		out.Columns = out.Columns[:len(out.Columns)-extra]
		for i, r := range out.Rows {
			out.Rows[i] = r[:len(out.Columns)]
		}
	}
	if sel.Distinct {
		out.Rows = dedupRows(out.Rows)
	}
	rows := out.Rows
	if sel.Offset > 0 {
		if sel.Offset >= len(rows) {
			rows = rows[:0]
		} else {
			rows = rows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(rows) {
		rows = rows[:sel.Limit]
	}
	out.Rows = rows
	return out, nil
}

// orderCol resolves one ORDER BY key to a result-column index: a 1-based
// positional literal, a select-item alias, a qualified match against a
// select-item column reference, or a bare result-column name.
func orderCol(e sqlparse.Expr, sel *sqlparse.Select, cols []string) int {
	switch x := e.(type) {
	case *sqlparse.IntLit:
		if x.V >= 1 && int(x.V) <= len(cols) {
			return int(x.V) - 1
		}
	case *sqlparse.ColRefExpr:
		if i := selectItemIndex(sel, x); i >= 0 {
			return i
		}
		for i, c := range cols {
			if strings.EqualFold(c, x.Column) {
				return i
			}
		}
	}
	return -1
}

// selectItemIndex resolves a column reference to a select-item index: an
// alias match, or a qualified match against a select-item column reference.
func selectItemIndex(sel *sqlparse.Select, x *sqlparse.ColRefExpr) int {
	for i, it := range sel.Items {
		if it.Alias != "" && strings.EqualFold(it.Alias, x.Column) {
			return i
		}
		if cr, ok := it.Expr.(*sqlparse.ColRefExpr); ok &&
			strings.EqualFold(cr.Column, x.Column) &&
			(x.Table == "" || strings.EqualFold(cr.Table, x.Table)) {
			return i
		}
	}
	return -1
}

// dedupRows drops duplicate rows (full-row equality) preserving order.
func dedupRows(rows []sqldb.Row) []sqldb.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.AsString())
			b.WriteByte(0)
			b.WriteByte(byte(v.Kind()))
		}
		k := b.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// isAggSelect reports a no-GROUP-BY all-aggregate select list — the one
// aggregate shape that merges across shards (each shard returns one row).
func isAggSelect(sel *sqlparse.Select) bool {
	if sel.Star || len(sel.Items) == 0 {
		return false
	}
	for _, it := range sel.Items {
		if _, ok := it.Expr.(*sqlparse.AggExpr); !ok {
			return false
		}
	}
	return true
}

// mergeAggs combines one-row aggregate results: COUNT and SUM add, MIN and
// MAX compare. AVG cannot be recomputed from per-shard averages and is
// rejected rather than miscomputed.
func mergeAggs(sel *sqlparse.Select, results []*sqldb.Result) (*sqldb.Result, error) {
	out := &sqldb.Result{Columns: results[0].Columns, Rows: []sqldb.Row{make(sqldb.Row, len(sel.Items))}}
	for i, it := range sel.Items {
		agg := it.Expr.(*sqlparse.AggExpr)
		acc := sqldb.Null()
		for _, r := range results {
			if len(r.Rows) != 1 || i >= len(r.Rows[0]) {
				return nil, errors.New("cluster: malformed aggregate partial result")
			}
			v := r.Rows[0][i]
			if v.IsNull() {
				continue
			}
			switch agg.Func {
			case sqlparse.AggCount, sqlparse.AggSum:
				acc = addValues(acc, v)
			case sqlparse.AggMin:
				if acc.IsNull() || sqldb.Compare(v, acc) < 0 {
					acc = v
				}
			case sqlparse.AggMax:
				if acc.IsNull() || sqldb.Compare(v, acc) > 0 {
					acc = v
				}
			default:
				return nil, fmt.Errorf("cluster: %s across shards is not supported", agg.Func)
			}
		}
		if acc.IsNull() && agg.Func == sqlparse.AggCount {
			acc = sqldb.Int(0)
		}
		out.Rows[0][i] = acc
	}
	return out, nil
}

// addValues sums two non-null numeric values, promoting to float if either is.
func addValues(a, b sqldb.Value) sqldb.Value {
	if a.IsNull() {
		return b
	}
	if a.Kind() == sqldb.KindFloat || b.Kind() == sqldb.KindFloat {
		return sqldb.Float(a.AsFloat() + b.AsFloat())
	}
	return sqldb.Int(a.AsInt() + b.AsInt())
}

// broadcastAll applies a cross-shard write or DDL on every shard under the
// outer (shard-set-wide) write-order locks, so concurrent cross-shard
// writers land in one order on every shard — without the outer hold, two
// clients' writes to a global table could interleave differently per shard
// and leave the "replicated everywhere" tables diverged between shards.
// Pinned writes never pass through here: shards own disjoint rows, so the
// owning shard's inner locks are the complete serialization.
func (sh *shardSet) broadcastAll(query string, args []sqldb.Value, cached bool, p *shardPlan) (*sqldb.Result, error) {
	sh.broadcast.Add(1)
	release := sh.outer.acquire(p.rt.tables)
	defer release()
	results := make([]*sqldb.Result, len(sh.shards))
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i := range sh.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sh.shards[i].exec(query, args, cached)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if ct, ok := p.stmt.(*sqlparse.CreateTable); ok {
		if err := sh.strideTable(ct.Name); err != nil {
			return nil, err
		}
	}
	return results[0], nil
}

// strideTable sets a freshly created sharded table's AUTO_INCREMENT stride
// so each shard's generated ids fall in its own congruence class (see
// shardIndex). Global tables keep the default dense counter — their writes
// broadcast, so every shard assigns the same ids anyway.
func (sh *shardSet) strideTable(table string) error {
	if _, ok := sh.byTable[strings.ToLower(table)]; !ok {
		return nil
	}
	for i, s := range sh.shards {
		q := fmt.Sprintf("ALTER TABLE %s AUTO_INCREMENT OFFSET %d STRIDE %d", table, i+1, len(sh.shards))
		if _, err := s.Exec(q); err != nil {
			return fmt.Errorf("cluster: stride %s on shard %d: %w", table, i, err)
		}
	}
	return nil
}

// ---- sharded sessions: per-shard sub-sessions and two-phase commit ----

var errShardOrder = errors.New("cluster: transaction touched shards out of ascending order; declare a global table at Begin to open all shards up front")

// shExec routes one session statement. Outside a transaction the session
// adds nothing over the pool path; inside one, statements run on the
// participating shards' sub-sessions.
func (s *Session) shExec(query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	if s.failed {
		return nil, errors.New("cluster: session failed, discard it")
	}
	sh := s.c.sh
	p := sh.planOf(s.c, query)
	if !s.inTxn {
		return sh.exec(s.c, query, args, cached)
	}
	if p.rt.kind == kindTxnControl {
		return nil, ErrTxnControlText
	}
	if s.readOnly && p.rt.kind != kindRead {
		return nil, errReadOnlyTxn
	}
	if !p.sharded {
		// Global table: in a transaction it must still run on a
		// participating sub-session (reads must see the txn's own writes;
		// writes are broadcast when the txn was opened all-shard).
		if p.rt.kind == kindRead {
			sub, err := s.anySub()
			if err != nil {
				return nil, err
			}
			return s.subExec(sub, query, args, cached)
		}
		return s.subBroadcast(p, query, args, cached)
	}
	if shard, ok := p.shardFor(args, len(sh.shards)); ok {
		sub, err := s.sub(shard)
		if err != nil {
			return nil, err
		}
		sh.single.Add(1)
		return s.subExec(sub, query, args, cached)
	}
	if p.insert {
		if p.exprs != nil {
			return nil, errInsertSpansShards
		}
		// Keyless INSERT: any participating shard's strided counter
		// assigns an id that routes back to it.
		sub, err := s.anySub()
		if err != nil {
			return nil, err
		}
		sh.single.Add(1)
		return s.subExec(sub, query, args, cached)
	}
	if p.rt.kind == kindRead {
		if err := s.allSubs(); err != nil {
			return nil, err
		}
		sh.scatter.Add(1)
		return sh.scatterRead(p, query, args, cached, s.subs)
	}
	return s.subBroadcast(p, query, args, cached)
}

// subBroadcast runs an unpinned write on every shard's sub-session.
func (s *Session) subBroadcast(p *shardPlan, query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	if err := s.allSubs(); err != nil {
		return nil, err
	}
	s.c.sh.broadcast.Add(1)
	var first *sqldb.Result
	for _, sub := range s.subs {
		res, err := s.subExec(sub, query, args, cached)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		}
	}
	return first, nil
}

// subExec runs one statement on a sub-session, propagating its poisoning:
// a sub that aborted or transport-failed takes the whole coordinated
// transaction with it.
func (s *Session) subExec(sub *Session, query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	res, err := sub.exec(query, args, cached)
	if sub.failed {
		s.failed = true
	}
	return res, err
}

// sub returns shard i's sub-session, opening it (and, inside a
// transaction, beginning the shard-local transaction with the declared
// write set) on first touch. Write transactions may only open shards in
// ascending order — the same sorted-acquisition discipline the write-order
// locks use, excluding deadlock between concurrent cross-shard
// transactions. Read-only transactions hold no locks and open freely.
func (s *Session) sub(i int) (*Session, error) {
	sh := s.c.sh
	sub := s.subs[i]
	if sub != nil && (!s.inTxn || sub.inTxn) {
		return sub, nil
	}
	if s.inTxn && !s.readOnly && !s.allShard && i < s.maxSub {
		s.failed = true
		return nil, errShardOrder
	}
	if sub == nil {
		var err error
		sub, err = sh.shards[i].Get()
		if err != nil {
			s.failed = true
			return nil, err
		}
		s.subs[i] = sub
	}
	if s.inTxn {
		var err error
		if s.readOnly {
			err = sub.BeginReadOnly()
		} else {
			err = sub.Begin(s.declared...)
		}
		if err != nil {
			s.failed = true
			return nil, err
		}
		if i > s.maxSub {
			s.maxSub = i
		}
	}
	return sub, nil
}

// anySub returns a participating sub-session for statements any shard can
// serve: the lowest open one, or — with none open yet — shard 0, so later
// pinned statements can still open their shard in ascending order.
func (s *Session) anySub() (*Session, error) {
	for _, sub := range s.subs {
		if sub != nil && (!s.inTxn || sub.inTxn) {
			return sub, nil
		}
	}
	if s.inTxn && s.readOnly {
		return s.sub(s.c.sh.rrNext())
	}
	return s.sub(0)
}

// allSubs opens every shard's sub-session (a scatter read or cross-shard
// write inside the transaction). A write transaction can only be promoted
// to all-shard while its open set is a contiguous prefix of the shard
// order — sub() rejects filling a gap behind maxSub — so a transaction
// already pinned past a skipped shard fails deterministically instead of
// risking out-of-order lock acquisition.
func (s *Session) allSubs() error {
	for i := range s.subs {
		if _, err := s.sub(i); err != nil {
			return err
		}
	}
	if s.inTxn && !s.readOnly {
		s.allShard = true
	}
	return nil
}

// shBegin opens a coordinated transaction. A declared write set naming
// only sharded tables opens shards lazily as statements pin them (the
// single-shard fast path: one shard, no 2PC); declaring a global table —
// or declaring nothing — opens every shard up front, since the write set
// spans them all.
func (s *Session) shBegin(readOnly bool, tables []string) error {
	if s.failed {
		return errors.New("cluster: session failed, discard it")
	}
	if s.inTxn {
		if err := s.Commit(); err != nil {
			return err
		}
	}
	sh := s.c.sh
	s.declared = normalize(tables)
	s.readOnly = readOnly
	s.maxSub = -1
	s.allShard = false
	s.inTxn = true
	if readOnly {
		s.c.roTxns.Add(1)
		return nil
	}
	all := len(s.declared) == 0
	for _, t := range s.declared {
		if _, sharded := sh.byTable[t]; !sharded {
			all = true
		}
	}
	if all {
		s.allShard = true
		if err := s.allSubs(); err != nil {
			s.shAbort()
			return err
		}
	}
	return nil
}

// shAbort best-effort rolls back every open sub-transaction after a
// failed open; the session stays failed and its conns are discarded at Put.
func (s *Session) shAbort() {
	for _, sub := range s.subs {
		if sub != nil && sub.inTxn {
			sub.Rollback()
		}
	}
	s.inTxn, s.readOnly = false, false
}

// shCommit resolves the coordinated transaction. One participant (or a
// read-only transaction) commits directly — the shard's own ROWA commit is
// the whole story. More than one write participant runs two-phase commit:
// every shard's transaction is brought to the prepared state (PREPARE
// TRANSACTION, wire protocol v4) — past prepare, a shard's commit can no
// longer fail engine-side — and only when every shard has prepared do the
// COMMITs go out. A prepare failure aborts every shard: no shard commits
// unless all can, which is what keeps a multi-shard order atomic.
func (s *Session) shCommit() error {
	if !s.inTxn {
		return nil
	}
	sh := s.c.sh
	defer func() { s.inTxn, s.readOnly, s.allShard = false, false, false }()
	subs := s.openSubs()
	if len(subs) <= 1 || s.readOnly {
		var err error
		for _, sub := range subs {
			if e := sub.Commit(); e != nil && err == nil {
				err = e
			}
		}
		if err != nil {
			s.failed = true
		}
		return err
	}
	for _, sub := range subs {
		if err := sub.PrepareTxn(); err != nil {
			for _, r := range subs {
				r.Rollback()
			}
			s.failed = true
			return fmt.Errorf("cluster: 2pc prepare: %w", err)
		}
	}
	if sh.betweenPhases != nil {
		sh.betweenPhases()
	}
	sh.txns2pc.Add(1)
	var err error
	for _, sub := range subs {
		if e := sub.Commit(); e != nil {
			err = e
		}
	}
	if err != nil {
		// Every shard prepared, so the failure is transport-side on some
		// replica; that replica was ejected by its shard's commit path and
		// rejoin-sync is its way back. The transaction itself committed.
		s.failed = true
		return fmt.Errorf("cluster: 2pc commit: %w", err)
	}
	return nil
}

// shRollback aborts the coordinated transaction on every open shard.
func (s *Session) shRollback() error {
	if !s.inTxn {
		return nil
	}
	var err error
	for _, sub := range s.openSubs() {
		if e := sub.Rollback(); e != nil {
			err = e
		}
	}
	s.inTxn, s.readOnly, s.allShard = false, false, false
	return err
}

// openSubs lists the sub-sessions participating in the open transaction,
// in shard order.
func (s *Session) openSubs() []*Session {
	var out []*Session
	for _, sub := range s.subs {
		if sub != nil && sub.inTxn {
			out = append(out, sub)
		}
	}
	return out
}

// shEnd returns every sub-session to its shard.
func (s *Session) shEnd(broken bool) {
	broken = broken || s.inTxn || s.failed
	for i, sub := range s.subs {
		if sub == nil {
			continue
		}
		s.c.sh.shards[i].Put(sub, broken)
		s.subs[i] = nil
	}
	s.inTxn, s.readOnly, s.allShard = false, false, false
}

// PrepareTxn brings this (unsharded) session's open transaction to the
// prepared state on every participating replica — phase one of the
// sharded coordinator's two-phase commit. Any error means the shard could
// not promise to commit and the coordinator must abort everywhere; a
// transport failure additionally poisons that replica's connection (its
// server-side transaction rolled back with the connection).
func (s *Session) PrepareTxn() error {
	if s.c.sh != nil {
		return errors.New("cluster: PrepareTxn runs on shard sub-sessions; Commit drives it")
	}
	if !s.inTxn {
		return errors.New("cluster: PREPARE TRANSACTION outside a transaction")
	}
	outs := fanOut(s.c.replicas, func(r *replica) bool {
		return s.conns[r.id] != nil && !s.broken[r.id]
	}, func(r *replica) (*sqldb.Result, error) {
		return nil, s.conns[r.id].PrepareTxn()
	})
	var lastErr error
	prepared := 0
	for i, o := range outs {
		if !o.ran {
			continue
		}
		if o.err != nil {
			lastErr = o.err
			if isTransport(o.err) {
				s.fail(s.c.replicas[i], o.err)
			}
			continue
		}
		prepared++
	}
	if prepared == 0 && lastErr == nil {
		return ErrNoReplicas
	}
	return lastErr
}
