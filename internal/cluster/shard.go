// Horizontal sharding (DESIGN.md §9): a sharded Client partitions tables
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
//   - Split: a multi-row INSERT whose rows belong to several shards is cut
//     into one part per owning shard, run as one unit (shardTxn.split).
//   - Scatter-gather: a SELECT not pinned to one shard fans out to every
//     shard and the partial results merge client-side — concatenate,
//     re-sort by the ORDER BY and re-apply the LIMIT, or sum a COUNT(*)
//     select's counts. The dialect has no other clause to merge.
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
// Transactions: a sharded Session (shardTxn) coordinates one sub-session per
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
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/telemetry"
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

// shardSet is the backend of a sharded Client: one replica set per shard
// group (each with its own pools, health tracking and query cache), the
// table→key map, and the memoized per-statement plans. It keeps no query
// cache of its own — pinned statements hit the owning shard's cache, and
// cross-shard merges are recomputed (their invalidation scope spans shards).
type shardSet struct {
	shards  []*replicaSet
	byTable map[string]string // lower-cased table -> shard key column
	// outer serializes cross-shard broadcasts (global-table writes, DDL)
	// over the full address set, so every shard applies them in one order.
	// Single-shard statements never touch it — the owning shard's own
	// write-order locks suffice, because shards own disjoint rows.
	outer *writeLocks
	addrs []string
	plans sync.Map // query text -> *shardPlan
	// routes is every shard's parse memo too: a text is parsed once per
	// Client, whichever shard or plan reads it.
	routes *routes
	rr     atomic.Uint64

	// The counter cells: ShardSingle, ShardScatter, ShardBroadcast and
	// Shard2PCTxns are counted here; the rest sum over the shards.
	counters

	// betweenPhases, when set (tests), runs between 2PC's PREPARE and
	// COMMIT phases — the in-doubt window chaos tests kill replicas in.
	betweenPhases func()
}

func newShardSet(cfg Config, groups [][]string) *shardSet {
	sh := &shardSet{byTable: make(map[string]string, len(cfg.ShardBy)), routes: new(routes)}
	for t, col := range cfg.ShardBy {
		sh.byTable[strings.ToLower(t)] = strings.ToLower(col)
	}
	for _, g := range groups {
		sh.addrs = append(sh.addrs, g...)
		sh.shards = append(sh.shards, newReplicaSet(cfg, g, sh.routes))
	}
	sh.outer = acquireWriteLocks(sh.addrs)
	return sh
}

func (sh *shardSet) rrNext() int { return int(sh.rr.Add(1) % uint64(len(sh.shards))) }

// shardPlan is the memoized routing decision for one statement text: its
// route (kind, tables and the parsed statement — route.go's one parse),
// whether it references a sharded table, and — when the predicate structure
// pins every touched row — the shard-key expressions to hash.
type shardPlan struct {
	rt      route
	sel     *sqlparse.Select // non-nil for parsed SELECTs
	insert  bool
	sharded bool            // references at least one sharded table
	exprs   []sqlparse.Expr // nil: not pinned (scatter / broadcast)
	// keyed marks an INSERT that names its table's shard key column with a
	// value the router cannot resolve ahead of the engine (exprs is nil).
	keyed bool
	// scatterSQL is the text each shard runs when a SELECT on a sharded
	// table scatters, and appended whether it appends the ORDER BY key to
	// the select list for the merge to sort on and project off.
	scatterSQL string
	appended   bool
}

func (sh *shardSet) planOf(query string) *shardPlan {
	if v, ok := sh.plans.Load(query); ok {
		return v.(*shardPlan)
	}
	p := sh.buildPlan(query)
	sh.plans.Store(query, p)
	return p
}

func (sh *shardSet) buildPlan(query string) *shardPlan {
	p := &shardPlan{rt: sh.routes.of(query)}
	refs := p.rt.tables
	switch st := p.rt.stmt.(type) {
	case *sqlparse.Select:
		p.sel, refs = st, p.rt.readTables
	case *sqlparse.Insert:
		p.insert = true
	case *sqlparse.Update, *sqlparse.Delete:
	default:
		// DDL and the rest: reads run on one shard, writes broadcast under
		// the route's tables — conservative, never wrong. (A refused text,
		// p.rt.err, has no statement and lands here too; Exec returns it.)
		return p
	}
	// First referenced sharded table whose key the statement pins wins:
	// with colocated tables (order_line by order_id) any pin lands on the
	// same shard, so "first" is a tie-break, not a semantic choice.
	for _, table := range refs {
		col, sharded := sh.byTable[table]
		if !sharded {
			continue
		}
		p.sharded = true
		if p.exprs == nil {
			if exprs, ok := sqlparse.ShardExprs(p.rt.stmt, table, col); ok {
				p.exprs = exprs
			} else if ins, ok := p.rt.stmt.(*sqlparse.Insert); ok {
				for _, c := range ins.Columns {
					p.keyed = p.keyed || strings.EqualFold(c, col)
				}
			}
		}
	}
	if p.sel != nil && p.sharded {
		p.scatterSQL, p.appended = scatterSQL(query, p.sel)
	}
	return p
}

// shardFor evaluates the plan's key expressions against the call's
// arguments. ok only when every expression resolves and all agree on one
// shard — a multi-row INSERT whose rows span shards is not pinned.
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

// shardValue resolves one constant expression — a key, or a value of a
// split INSERT's row: a literal, a '?' parameter from args, or a negation
// of either.
func shardValue(e sqlparse.Expr, args []sqldb.Value) (sqldb.Value, bool) {
	switch x := e.(type) {
	case *sqlparse.IntLit:
		return sqldb.Int(x.V), true
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

// Exec routes one pool-level statement through the shard set.
func (sh *shardSet) Exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	p := sh.planOf(query)
	switch {
	case p.rt.err != nil:
		return nil, p.rt.err
	case !p.rt.write:
		if !p.sharded {
			// Global tables are replicated on every shard; any one answers.
			return sh.shards[sh.rrNext()].Exec(query, args...)
		}
		if shard, ok := p.shardFor(args, len(sh.shards)); ok {
			sh.ShardSingle.Add(1)
			return sh.shards[shard].Exec(query, args...)
		}
		sh.ShardScatter.Add(1)
		return sh.scatterRead(p, args, nil)
	default: // writes and DDL
		if p.sharded && p.insert {
			return sh.insert(p, query, args)
		}
		if p.sharded && p.exprs != nil {
			if shard, ok := p.shardFor(args, len(sh.shards)); ok {
				sh.ShardSingle.Add(1)
				return sh.shards[shard].Exec(query, args...)
			}
		}
		return sh.broadcastAll(query, args, p)
	}
}

var errInsertSpansShards = errors.New("cluster: INSERT on a sharded table whose rows' shard keys or values are not literals or '?' parameters")

// ErrSplitInsertAborted is returned when a shard's part of a split
// multi-row INSERT fails: the parts already applied on other shards cannot
// be undone one by one, so the whole transaction — inside one, the
// application's; in auto-commit, the statement's own — has been rolled back.
var ErrSplitInsertAborted = errors.New("cluster: a shard's part of a multi-row INSERT failed; transaction rolled back")

// insertTarget resolves where an INSERT on a sharded table goes: to one
// shard (every row's key hashes there), to any shard (keyless, shard -1:
// the shard's strided counter assigns an id that routes back to it), or
// split (owners non-nil: each row's owning shard, in statement order).
func (p *shardPlan) insertTarget(args []sqldb.Value, n int) (shard int, owners []int, err error) {
	if p.exprs == nil {
		if p.keyed {
			return 0, nil, errInsertSpansShards
		}
		return -1, nil, nil
	}
	for i, e := range p.exprs {
		v, ok := shardValue(e, args)
		if !ok {
			return 0, nil, errInsertSpansShards
		}
		s := shardIndex(v, n)
		switch {
		case i == 0:
			shard = s
		case owners == nil && s != shard:
			owners = make([]int, i, len(p.exprs))
			for j := range owners {
				owners[j] = shard
			}
		}
		if owners != nil {
			owners = append(owners, s)
		}
	}
	return shard, owners, nil
}

// insert routes an auto-commit INSERT on a sharded table. A split runs in
// a coordinated transaction over the owning shards — its parts in
// ascending shard order, then two-phase commit — so the statement applies
// on every shard or on none.
func (sh *shardSet) insert(p *shardPlan, query string, args []sqldb.Value) (*sqldb.Result, error) {
	shard, owners, err := p.insertTarget(args, len(sh.shards))
	if err != nil {
		return nil, err
	}
	if owners == nil {
		if shard < 0 {
			shard = sh.rrNext()
		}
		sh.ShardSingle.Add(1)
		return sh.shards[shard].Exec(query, args...)
	}
	s := sh.newTxn()
	defer func() { s.end(false) }()
	if err := s.begin(p.rt.tables); err != nil {
		return nil, err
	}
	res, err := s.split(p, owners, args)
	if err != nil {
		return nil, err
	}
	if err := s.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// scatterRead fans a SELECT on a sharded table out to every shard and
// merges. subs, when non-nil, supplies the per-shard sub-sessions to run on
// (transactional scatter); otherwise each shard's pool path runs it.
func (sh *shardSet) scatterRead(p *shardPlan, args []sqldb.Value, subs []*replicaTxn) (*sqldb.Result, error) {
	results, err := sh.onEach(func(i int) (*sqldb.Result, error) {
		if subs != nil {
			return subs[i].Exec(p.scatterSQL, args...)
		}
		return sh.shards[i].Exec(p.scatterSQL, args...)
	})
	if err != nil {
		return nil, err
	}
	return mergeScatter(p.sel, results, p.appended)
}

// onEach runs run once per shard, concurrently, and returns the per-shard
// results in shard order, or the lowest failing shard's error.
func (sh *shardSet) onEach(run func(shard int) (*sqldb.Result, error)) ([]*sqldb.Result, error) {
	results := make([]*sqldb.Result, len(sh.shards))
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i := range sh.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// scatterSQL rewrites a SELECT into the text each shard runs when it
// scatters, splicing at the byte offset the parser recorded for FROM, and
// reports whether it appended a column to the select list. The LIMIT stays:
// the global top n is among the union of the shards' top n.
//
// An ORDER BY key the statement doesn't already select ("SELECT id FROM
// items ORDER BY end_date") is appended to the select list — the merge
// needs the key values to re-sort, and projects the appended column back
// off afterward.
func scatterSQL(query string, sel *sqlparse.Select) (string, bool) {
	if sel.Star || sel.Count || sel.OrderBy == nil || selectItemIndex(sel, sel.OrderBy.Col) >= 0 {
		return query, false
	}
	x := sel.OrderBy.Col
	col := x.Column
	if x.Table != "" {
		col = x.Table + "." + x.Column
	}
	return query[:sel.FromPos] + ", " + col + " " + query[sel.FromPos:], true
}

// mergeScatter combines per-shard partial results into the statement's
// answer: the sum of the counts for a COUNT(*) select, otherwise
// concatenate, re-sort, project off the column scatterSQL appended (the
// last, when appended) and re-apply the LIMIT.
func mergeScatter(sel *sqlparse.Select, results []*sqldb.Result, appended bool) (*sqldb.Result, error) {
	if sel.Count {
		return mergeCounts(results)
	}
	out := &sqldb.Result{Columns: results[0].Columns}
	for _, r := range results {
		out.Rows = append(out.Rows, r.Rows...)
	}
	if o := sel.OrderBy; o != nil {
		c := selectItemIndex(sel, o.Col)
		switch {
		case sel.Star:
			c = slices.IndexFunc(out.Columns, func(name string) bool { return strings.EqualFold(name, o.Col.Column) })
		case appended:
			c = len(out.Columns) - 1
		}
		if c < 0 || c >= len(out.Columns) {
			return nil, errors.New("cluster: cannot merge scatter ORDER BY key (not in the result)")
		}
		sort.SliceStable(out.Rows, func(a, b int) bool {
			cmp := sqldb.Compare(out.Rows[a][c], out.Rows[b][c])
			if o.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	if appended {
		out.Columns = out.Columns[:len(out.Columns)-1]
		for i, r := range out.Rows {
			out.Rows[i] = r[:len(out.Columns)]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(out.Rows) {
		out.Rows = out.Rows[:sel.Limit]
	}
	return out, nil
}

// selectItemIndex resolves a column reference to the index of the selected
// column it names, or -1.
func selectItemIndex(sel *sqlparse.Select, x *sqlparse.ColRefExpr) int {
	for i, cr := range sel.Columns {
		if strings.EqualFold(cr.Column, x.Column) && (x.Table == "" || strings.EqualFold(cr.Table, x.Table)) {
			return i
		}
	}
	return -1
}

// mergeCounts sums the shards' one-row, one-column COUNT(*) results.
func mergeCounts(results []*sqldb.Result) (*sqldb.Result, error) {
	var n int64
	for _, r := range results {
		if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
			return nil, errors.New("cluster: malformed COUNT(*) partial result")
		}
		n += r.Rows[0][0].AsInt()
	}
	return &sqldb.Result{Columns: results[0].Columns, Rows: []sqldb.Row{{sqldb.Int(n)}}}, nil
}

// broadcastAll applies a cross-shard write or DDL on every shard under the
// outer (shard-set-wide) write-order locks, so concurrent cross-shard
// writers land in one order on every shard — without the outer hold, two
// clients' writes to a global table could interleave differently per shard
// and leave the "replicated everywhere" tables diverged between shards.
// Pinned writes never pass through here: shards own disjoint rows, so the
// owning shard's inner locks are the complete serialization.
func (sh *shardSet) broadcastAll(query string, args []sqldb.Value, p *shardPlan) (*sqldb.Result, error) {
	sh.ShardBroadcast.Add(1)
	release := sh.outer.acquire(p.rt.tables)
	defer release()
	results, err := sh.onEach(func(i int) (*sqldb.Result, error) {
		return sh.shards[i].Exec(query, args...)
	})
	if err != nil {
		return nil, err
	}
	if ct, ok := p.rt.stmt.(*sqlparse.CreateTable); ok {
		if err := sh.strideTable(ct.Name); err != nil {
			return nil, err
		}
	}
	return p.mergeWrite(results), nil
}

// mergeWrite is the answer of a write every shard applied. On a global
// table every shard did the same thing and any one answer is the answer;
// on a sharded table each shard touched its own disjoint rows, so the
// statement's row count is the sum.
func (p *shardPlan) mergeWrite(results []*sqldb.Result) *sqldb.Result {
	if p.sharded {
		for _, r := range results[1:] {
			results[0].RowsAffected += r.RowsAffected
		}
	}
	return results[0]
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

func (sh *shardSet) ClientStats() ClientStats {
	s := sh.stats()
	s.Shards = len(sh.shards)
	for _, rs := range sh.shards {
		telemetry.Add(&s, rs.ClientStats())
	}
	return s
}

func (sh *shardSet) Replicas() int { return len(sh.addrs) }

func (sh *shardSet) Healthy() int {
	n := 0
	for _, rs := range sh.shards {
		n += rs.Healthy()
	}
	return n
}

func (sh *shardSet) Rejoin(id int, syncData bool) error {
	rest := id
	for _, rs := range sh.shards {
		if rest < len(rs.replicas) {
			return rs.Rejoin(rest, syncData)
		}
		rest -= len(rs.replicas)
	}
	return fmt.Errorf("cluster: no replica %d", id)
}

func (sh *shardSet) Stats() pool.Stats {
	pools := make([]pool.Stats, len(sh.shards))
	for i, rs := range sh.shards {
		pools[i] = rs.Stats()
	}
	return pool.Sum("db-shards", pools)
}

// ReplicaStats concatenates the shards' replicas in shard order, renumbered
// globally, each entry's Shard field set.
func (sh *shardSet) ReplicaStats() []telemetry.Replica {
	var out []telemetry.Replica
	for si, rs := range sh.shards {
		for _, r := range rs.ReplicaStats() {
			r.ID = len(out)
			r.Shard = si
			out = append(out, r)
		}
	}
	return out
}

// ContentEpoch is the SUM of the per-shard epochs — every shard's committed
// writes advance it, so a page cached under the combined epoch is
// invalidated by a write through any shard. (A max would not be safe: two
// shards advancing in lockstep could leave the max unchanged while content
// moved.)
func (sh *shardSet) ContentEpoch() uint64 {
	var e uint64
	for _, rs := range sh.shards {
		e += rs.ContentEpoch()
	}
	return e
}

func (sh *shardSet) close() {
	for _, rs := range sh.shards {
		rs.close()
	}
	releaseWriteLocks(sh.addrs)
}

// ---- sharded sessions: per-shard sub-sessions and two-phase commit ----

var errShardOrder = errors.New("cluster: transaction touched shards out of ascending order; declare a global table at Begin to open all shards up front")

// shardTxn is a session over the shard set: the transaction coordinator.
// subs holds one lazily-opened sub-session per shard; declared is Begin's
// write set, replayed into each shard-local BEGIN; allShard marks a
// transaction opened on every shard; maxSub is the highest shard a lazy
// write transaction has opened (the ascending-order deadlock discipline).
type shardTxn struct {
	sh       *shardSet
	subs     []*replicaTxn
	declared []string
	inTxn    bool
	allShard bool
	failed   bool
	maxSub   int
}

func (sh *shardSet) session() (txn, error) { return sh.newTxn(), nil }

func (sh *shardSet) newTxn() *shardTxn {
	return &shardTxn{sh: sh, subs: make([]*replicaTxn, len(sh.shards)), maxSub: -1}
}

func (s *shardTxn) state() (open, failed bool) { return s.inTxn, s.failed }

// Exec routes one session statement. Outside a transaction the session
// adds nothing over the pool path; inside one, statements run on the
// participating shards' sub-sessions.
func (s *shardTxn) Exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	if s.failed {
		return nil, errSessionFailed
	}
	sh := s.sh
	if !s.inTxn {
		return sh.Exec(query, args...)
	}
	p := sh.planOf(query)
	if p.rt.err != nil {
		return nil, p.rt.err
	}
	if !p.sharded {
		// Global table: in a transaction it must still run on a
		// participating sub-session (reads must see the txn's own writes;
		// writes are broadcast when the txn was opened all-shard).
		if !p.rt.write {
			sub, err := s.anySub()
			if err != nil {
				return nil, err
			}
			return s.subExec(sub, query, args)
		}
		return s.subBroadcast(p, query, args)
	}
	if p.insert {
		return s.insert(p, query, args)
	}
	if shard, ok := p.shardFor(args, len(sh.shards)); ok {
		sub, err := s.sub(shard)
		if err != nil {
			return nil, err
		}
		sh.ShardSingle.Add(1)
		return s.subExec(sub, query, args)
	}
	if !p.rt.write {
		if err := s.allSubs(); err != nil {
			return nil, err
		}
		sh.ShardScatter.Add(1)
		res, err := sh.scatterRead(p, args, s.subs)
		// The fan-out ran the subs concurrently, past subExec: fold their
		// poisoning in here, once they have all returned.
		for _, sub := range s.subs {
			s.failed = s.failed || sub.failed
		}
		return res, err
	}
	return s.subBroadcast(p, query, args)
}

// insert routes an INSERT on a sharded table inside the transaction: to
// its one shard's sub-session, to any participating one when keyless (its
// strided counter assigns an id that routes back to it), or split across
// the owning shards' sub-sessions.
func (s *shardTxn) insert(p *shardPlan, query string, args []sqldb.Value) (*sqldb.Result, error) {
	shard, owners, err := p.insertTarget(args, len(s.sh.shards))
	if err != nil {
		return nil, err
	}
	if owners != nil {
		return s.split(p, owners, args)
	}
	var sub *replicaTxn
	if shard < 0 {
		sub, err = s.anySub()
	} else {
		sub, err = s.sub(shard)
	}
	if err != nil {
		return nil, err
	}
	s.sh.ShardSingle.Add(1)
	return s.subExec(sub, query, args)
}

// split runs a multi-row INSERT whose rows belong to several shards as one
// part per owning shard, in ascending shard order: the shard's rows in
// statement order, every value re-sent as a '?' argument, in chunks of 2^k
// rows, largest first — so a column list yields at most log2(rows)+1 texts
// and no plan cache or per-connection statement table fills with one-off
// texts. RowsAffected is the sum over shards; LastInsertID is the answer of
// the shard holding the statement's last row. A part that fails rolls the
// transaction back and fails the session: the parts already applied on
// other shards cannot be undone one by one.
func (s *shardTxn) split(p *shardPlan, owners []int, args []sqldb.Value) (*sqldb.Result, error) {
	ins := p.rt.stmt.(*sqlparse.Insert)
	width := len(ins.Columns)
	vals := make([][]sqldb.Value, len(s.subs)) // by shard, row-major
	for row, shard := range owners {
		if len(ins.Rows[row]) != width {
			return nil, fmt.Errorf("cluster: %d values for %d columns in INSERT into %q", len(ins.Rows[row]), width, ins.Table)
		}
		for _, e := range ins.Rows[row] {
			v, ok := shardValue(e, args)
			if !ok {
				return nil, errInsertSpansShards
			}
			vals[shard] = append(vals[shard], v)
		}
	}
	fail := func(err error) (*sqldb.Result, error) {
		s.Rollback()
		s.failed = true
		return nil, fmt.Errorf("%w: %w", ErrSplitInsertAborted, err)
	}
	out := &sqldb.Result{}
	for shard, v := range vals {
		if len(v) == 0 {
			continue
		}
		sub, err := s.sub(shard)
		if err != nil {
			return fail(err)
		}
		for len(v) > 0 {
			k := 1 << (bits.Len(uint(len(v)/width)) - 1)
			res, err := s.subExec(sub, sqldb.InsertSQL(ins.Table, ins.Columns, k), v[:k*width])
			if err != nil {
				return fail(err)
			}
			v = v[k*width:]
			out.RowsAffected += res.RowsAffected
			if shard == owners[len(owners)-1] {
				out.LastInsertID = res.LastInsertID
			}
		}
	}
	return out, nil
}

// subBroadcast runs an unpinned write on every shard's sub-session.
func (s *shardTxn) subBroadcast(p *shardPlan, query string, args []sqldb.Value) (*sqldb.Result, error) {
	if err := s.allSubs(); err != nil {
		return nil, err
	}
	s.sh.ShardBroadcast.Add(1)
	results := make([]*sqldb.Result, len(s.subs))
	for i, sub := range s.subs {
		var err error
		if results[i], err = s.subExec(sub, query, args); err != nil {
			return nil, err
		}
	}
	return p.mergeWrite(results), nil
}

// subExec runs one statement on a sub-session, propagating its poisoning:
// a sub that aborted or transport-failed takes the whole coordinated
// transaction with it.
func (s *shardTxn) subExec(sub *replicaTxn, query string, args []sqldb.Value) (*sqldb.Result, error) {
	res, err := sub.Exec(query, args...)
	if sub.failed {
		s.failed = true
	}
	return res, err
}

// sub returns shard i's sub-session, opening it and beginning the
// shard-local transaction with the declared write set on first touch (Exec
// reaches a sub only inside a transaction). Transactions may only open
// shards in ascending order — the same sorted-acquisition discipline
// the write-order locks use, excluding deadlock between concurrent
// cross-shard transactions.
func (s *shardTxn) sub(i int) (*replicaTxn, error) {
	sub := s.subs[i]
	if sub != nil && sub.inTxn {
		return sub, nil
	}
	if !s.allShard && i < s.maxSub {
		s.failed = true
		return nil, errShardOrder
	}
	var err error
	if sub == nil {
		sub, err = s.sh.shards[i].open()
		if err != nil {
			s.failed = true
			return nil, err
		}
		s.subs[i] = sub
	}
	if sub.failed {
		err = errSessionFailed
	} else {
		err = sub.begin(s.declared)
	}
	if err != nil {
		s.failed = true
		return nil, err
	}
	if i > s.maxSub {
		s.maxSub = i
	}
	return sub, nil
}

// anySub returns a participating sub-session for statements any shard can
// serve: the lowest open one, or — with none open yet — shard 0, so later
// pinned statements can still open their shard in ascending order.
func (s *shardTxn) anySub() (*replicaTxn, error) {
	for _, sub := range s.subs {
		if sub != nil && sub.inTxn {
			return sub, nil
		}
	}
	return s.sub(0)
}

// allSubs opens every shard's sub-session (a scatter read or cross-shard
// write inside the transaction). A transaction can only be promoted to
// all-shard while its open set is a contiguous prefix of the shard
// order — sub() rejects filling a gap behind maxSub — so a transaction
// already pinned past a skipped shard fails deterministically instead of
// risking out-of-order lock acquisition.
func (s *shardTxn) allSubs() error {
	for i := range s.subs {
		if _, err := s.sub(i); err != nil {
			return err
		}
	}
	s.allShard = true
	return nil
}

// begin opens a coordinated transaction. A declared write set naming
// only sharded tables opens shards lazily as statements pin them (the
// single-shard fast path: one shard, no 2PC); declaring a global table —
// or declaring nothing — opens every shard up front, since the write set
// spans them all.
func (s *shardTxn) begin(declared []string) error {
	s.declared = declared
	s.inTxn = true
	all := len(declared) == 0
	for _, t := range declared {
		if _, sharded := s.sh.byTable[t]; !sharded {
			all = true
		}
	}
	if all {
		s.allShard = true
		if err := s.allSubs(); err != nil {
			// Best-effort rollback of what did open; the session stays
			// failed and its conns are discarded at Put.
			s.Rollback()
			return err
		}
	}
	return nil
}

// Commit resolves the coordinated transaction. One participant commits
// directly — the shard's own ROWA commit is the whole story. More than one
// participant runs two-phase commit: every shard's transaction is brought to
// the prepared state (PREPARE TRANSACTION, wire protocol v4) — past prepare,
// a shard's commit can no longer fail engine-side — and only when every
// shard has prepared do the COMMITs go out. A prepare failure aborts every shard: no shard commits
// unless all can, which is what keeps a multi-shard order atomic.
func (s *shardTxn) Commit() error {
	if !s.inTxn {
		return nil
	}
	sh := s.sh
	subs := s.openSubs()
	defer s.closeTxn()
	if len(subs) <= 1 {
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
		if err := sub.prepare(); err != nil {
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
	sh.Shard2PCTxns.Add(1)
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

// Rollback aborts the coordinated transaction on every open shard.
func (s *shardTxn) Rollback() error {
	var err error
	for _, sub := range s.openSubs() {
		if e := sub.Rollback(); e != nil {
			err = e
		}
	}
	s.closeTxn()
	return err
}

func (s *shardTxn) closeTxn() { s.inTxn, s.allShard, s.maxSub = false, false, -1 }

// openSubs lists the sub-sessions participating in the open transaction,
// in shard order.
func (s *shardTxn) openSubs() []*replicaTxn {
	var out []*replicaTxn
	for _, sub := range s.subs {
		if sub != nil && sub.inTxn {
			out = append(out, sub)
		}
	}
	return out
}

// end returns every sub-session to its shard.
func (s *shardTxn) end(broken bool) {
	broken = broken || s.inTxn || s.failed
	for i, sub := range s.subs {
		if sub != nil {
			sub.end(broken)
			s.subs[i] = nil
		}
	}
	s.closeTxn()
}
