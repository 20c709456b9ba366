// Horizontal sharding (DESIGN.md §9): a Client partitions tables across N
// independent replication clusters ("shard groups") by a per-table key
// column, composing with everything below it — each shard is a full ROWA
// cluster (M replicas, ejection, rejoin, its own query cache), so a "2x3"
// topology is two shards of three replicas each. An unsharded Client is the
// same shard set at N = 1: its router has no shard map, every statement goes
// to the one group uncounted, and its locks and telemetry rows are the
// group's own.
//
// One plan, one decision. A text's plan is its route, memoized once per
// client and read by every shard: planShards adds the shard-key
// expressions that pin it (sqlparse.ShardExprs, evaluated by
// sqldb.EvalConst as the engine evaluates them). target maps the plan and
// the arguments to where the statement runs; shardSet.exec carries that out
// on the shards' replica sets in auto-commit, shardTxn.exec on the
// transaction's sub-sessions. In decreasing order of preference:
//
//   - One shard: every touched row lives there — the scaling fast path, for
//     writes especially: a pinned write costs one shard's broadcast, not
//     every replica's. A global-table read or a keyless INSERT runs on any
//     one shard.
//   - Split: a multi-row INSERT whose rows belong to several shards is cut
//     into one part per owning shard, run as one unit (shardTxn.split).
//   - Scatter: an unpinned SELECT runs on every shard and the partial
//     results merge client-side — concatenate, re-sort by the ORDER BY and
//     re-apply the LIMIT, or sum a COUNT(*) select's counts.
//   - Broadcast: global-table writes, unpinned UPDATE/DELETE (each shard
//     owns disjoint rows, so applying everywhere is exact) and DDL run on
//     every shard, in auto-commit under a shard-set-wide write-order lock,
//     so cross-shard statements land in one order on every shard.
//
// A CREATE TABLE for a sharded table strides its AUTO_INCREMENT (shard i of
// n counts i+1, i+1+n, ...), so a generated id hashes back to its shard and
// a row keyed by it (order_line by order_id) colocates with its parent.
//
// Transactions: a Session (shardTxn) coordinates one sub-session per
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

// shardSet is what a Client routes over: one replica set per shard group
// (each with its own pools, health tracking and query cache) and the
// client's plan memo, which every shard reads too. It keeps no query cache
// of its own — pinned statements hit the owning shard's cache, and
// cross-shard merges are recomputed (their invalidation scope spans shards).
// Its exported methods are the Client's own.
type shardSet struct {
	shards []*replicaSet
	// outer serializes cross-shard broadcasts (global-table writes, DDL)
	// over the full address set, so every shard applies them in one order.
	// Single-shard statements never touch it — the owning shard's own
	// write-order locks suffice, because shards own disjoint rows. A set of
	// one group has none: target never broadcasts there.
	outer  *writeLocks
	addrs  []string
	routes *routes
	rr     atomic.Uint64

	// The counter cells: ShardSingle, ShardScatter and ShardBroadcast are
	// counted in target, Shard2PCTxns in Commit; the rest sum over the
	// shards.
	counters

	// betweenPhases, when set (tests), runs between 2PC's PREPARE and
	// COMMIT phases — the in-doubt window chaos tests kill replicas in.
	betweenPhases func()
}

// newShardSet builds the set over the DSN's groups; no group at all is one
// group of the empty address. With one group, ShardBy is ignored: the
// router gets no shard map.
func newShardSet(cfg Config, groups [][]string) *shardSet {
	if len(groups) == 0 {
		groups = [][]string{{""}}
	}
	rt := new(routes)
	if len(groups) > 1 {
		rt.byTable = make(map[string]string, len(cfg.ShardBy))
		for t, col := range cfg.ShardBy {
			rt.byTable[strings.ToLower(t)] = strings.ToLower(col)
		}
	}
	sh := &shardSet{routes: rt}
	for _, g := range groups {
		sh.addrs = append(sh.addrs, g...)
		sh.shards = append(sh.shards, newReplicaSet(cfg, g, rt))
	}
	if sh.sharded() {
		sh.outer = acquireWriteLocks(sh.addrs)
	}
	return sh
}

// sharded reports a set of more than one group. A set of one looks
// unsharded from outside, as its callers say: no lock or count of its own.
func (sh *shardSet) sharded() bool { return len(sh.shards) > 1 }

func (sh *shardSet) rrNext() int { return int(sh.rr.Add(1) % uint64(len(sh.shards))) }

// planShards sets the route's shard plan from the sharded tables' key
// columns. DDL and the rest keep an empty plan: reads run on one shard,
// writes broadcast under the route's tables — conservative, never wrong.
func (r *route) planShards(query string, byTable map[string]string) {
	refs := r.tables
	switch r.stmt.(type) {
	case *sqlparse.Select:
		refs = r.readTables
	case *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete:
	default:
		return
	}
	// First referenced sharded table whose key the statement pins wins:
	// with colocated tables (order_line by order_id) any pin lands on the
	// same shard, so "first" is a tie-break, not a semantic choice.
	for _, table := range refs {
		col, sharded := byTable[table]
		if !sharded {
			continue
		}
		r.sharded = true
		if r.exprs == nil {
			if exprs, ok := sqlparse.ShardExprs(r.stmt, table, col); ok {
				r.exprs = exprs
			} else if ins, ok := r.stmt.(*sqlparse.Insert); ok {
				for _, c := range ins.Columns {
					r.keyed = r.keyed || strings.EqualFold(c, col)
				}
			}
		}
	}
	if sel, ok := r.stmt.(*sqlparse.Select); ok && r.sharded {
		r.scatterSQL, r.appended = scatterSQL(query, sel)
	}
}

// shardFor evaluates the plan's WHERE key expressions against the call's
// arguments. ok only when every expression resolves and all agree on one
// shard.
func (r *route) shardFor(args []sqldb.Value, n int) (int, bool) {
	shard := -1
	for _, e := range r.exprs {
		v, err := sqldb.EvalConst(e, args)
		if err != nil {
			return 0, false
		}
		// The engine compares a key with the INT column as a number, by
		// its AsFloat, and a NaN compares equal to every row.
		k := v.AsInt()
		if v.Kind() != sqldb.KindInt {
			f := v.AsFloat()
			if f != f {
				return 0, false
			}
			k = int64(f)
		}
		s := shardIndex(k, n)
		if shard >= 0 && s != shard {
			return 0, false
		}
		shard = s
	}
	return shard, shard >= 0
}

// shardIndex maps an INT shard key to its owning shard by congruence —
// shard i of n owns keys ≡ i+1 (mod n) — which is exactly the class a
// strided AUTO_INCREMENT (OFFSET i+1 STRIDE n) assigns, so generated ids
// route back to the shard that generated them.
func shardIndex(k int64, n int) int {
	return int(((k-1)%int64(n) + int64(n)) % int64(n))
}

// reach is where a statement runs on the shard set.
type reach uint8

const (
	reachAny       reach = iota // any one shard
	reachOne                    // target.shard
	reachScatter                // every shard, the partial results merged
	reachBroadcast              // every shard, the same write
	reachSplit                  // each INSERT row on its owner, target.owners
)

// target is one routing decision: where, the shard of reachOne, and for
// reachSplit each row's owning shard in statement order.
type target struct {
	reach  reach
	shard  int
	owners []int
}

// target decides where a statement runs, for both the auto-commit and the
// transactional path, and counts the decision — the one place ShardSingle,
// ShardScatter and ShardBroadcast advance. A set of one sends everything to
// its one shard, uncounted. A global-table read runs on any shard,
// uncounted: every shard holds the table. A keyless INSERT runs on any one
// shard too: its strided counter assigns an id that routes back to it.
func (sh *shardSet) target(p *route, args []sqldb.Value) (t target, err error) {
	switch _, insert := p.stmt.(*sqlparse.Insert); {
	case p.err != nil:
		return t, p.err
	case !sh.sharded():
		return target{reach: reachOne}, nil
	case !p.sharded && !p.write:
		return t, nil
	case p.sharded && insert:
		if t, err = p.insertTarget(args, len(sh.shards)); err != nil {
			return t, err
		}
	default:
		var ok bool
		if t.shard, ok = p.shardFor(args, len(sh.shards)); ok {
			t.reach = reachOne
		} else if p.write {
			t.reach = reachBroadcast
		} else {
			t.reach = reachScatter
		}
	}
	switch t.reach {
	case reachAny, reachOne:
		sh.ShardSingle.Add(1)
	case reachScatter:
		sh.ShardScatter.Add(1)
	case reachBroadcast:
		sh.ShardBroadcast.Add(1)
	}
	return t, nil
}

// Exec routes one statement: reads run on one load-balanced replica (of the
// owning shard, or merged across shards), writes broadcast to all healthy
// replicas in order under the table write-order lock.
func (sh *shardSet) Exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return sh.exec(sh.routes.of(query), query, args)
}

// exec carries a statement's target out on the shards' replica sets. A
// split runs in a coordinated transaction over the owning shards — its
// parts in ascending shard order, then two-phase commit — so the statement
// applies on every shard or on none.
func (sh *shardSet) exec(p *route, query string, args []sqldb.Value) (*sqldb.Result, error) {
	t, err := sh.target(p, args)
	if err != nil {
		return nil, err
	}
	switch t.reach {
	case reachAny:
		return sh.shards[sh.rrNext()].exec(p, query, args)
	case reachOne:
		return sh.shards[t.shard].exec(p, query, args)
	case reachScatter:
		return sh.scatterRead(p, args, nil)
	case reachBroadcast:
		return sh.broadcastAll(p, query, args)
	}
	s := sh.newTxn()
	defer s.end(false)
	if err := s.begin(p.tables); err != nil {
		return nil, err
	}
	res, err := s.split(p, t.owners, args)
	if err == nil {
		err = s.Commit()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

var errInsertSpansShards = errors.New("cluster: INSERT on a sharded table whose rows' shard keys or values are not literals or '?' parameters")

// ErrSplitInsertAborted is returned when a shard's part of a split
// multi-row INSERT fails: the parts already applied on other shards cannot
// be undone one by one, so the whole transaction — inside one, the
// application's; in auto-commit, the statement's own — has been rolled back.
var ErrSplitInsertAborted = errors.New("cluster: a shard's part of a multi-row INSERT failed; transaction rolled back")

// insertTarget resolves where an INSERT on a sharded table goes: to one
// shard (every row's key hashes there), to any shard (keyless), or split
// by owner.
func (p *route) insertTarget(args []sqldb.Value, n int) (target, error) {
	if p.exprs == nil {
		if p.keyed {
			return target{}, errInsertSpansShards
		}
		return target{reach: reachAny}, nil
	}
	t := target{reach: reachOne}
	for i, e := range p.exprs {
		v, err := sqldb.EvalConst(e, args)
		if err != nil {
			return target{}, errInsertSpansShards
		}
		s := shardIndex(v.AsInt(), n) // the INT key column stores the value's AsInt
		if i == 0 {
			t.shard = s
		} else if s != t.shard && t.owners == nil {
			t.reach, t.owners = reachSplit, slices.Repeat([]int{t.shard}, i)
		}
		if t.owners != nil {
			t.owners = append(t.owners, s)
		}
	}
	return t, nil
}

// scatterRead fans a SELECT on a sharded table out to every shard and
// merges. subs, when non-nil, supplies the per-shard sub-sessions to run on
// (transactional scatter); otherwise each shard's pool path runs it.
func (sh *shardSet) scatterRead(p *route, args []sqldb.Value, subs []*replicaTxn) (*sqldb.Result, error) {
	sp := sh.routes.of(p.scatterSQL)
	results, err := sh.onEach(func(i int) (*sqldb.Result, error) {
		if subs != nil {
			return subs[i].exec(sp, p.scatterSQL, args)
		}
		return sh.shards[i].exec(sp, p.scatterSQL, args)
	})
	if err != nil {
		return nil, err
	}
	return mergeScatter(p.stmt.(*sqlparse.Select), results, p.appended)
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
func (sh *shardSet) broadcastAll(p *route, query string, args []sqldb.Value) (*sqldb.Result, error) {
	release := sh.outer.acquire(p.tables)
	defer release()
	results, err := sh.onEach(func(i int) (*sqldb.Result, error) {
		return sh.shards[i].exec(p, query, args)
	})
	if err != nil {
		return nil, err
	}
	if ct, ok := p.stmt.(*sqlparse.CreateTable); ok {
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
func (p *route) mergeWrite(results []*sqldb.Result) *sqldb.Result {
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
	if _, ok := sh.routes.byTable[strings.ToLower(table)]; !ok {
		return nil
	}
	for i, s := range sh.shards {
		q := fmt.Sprintf("ALTER TABLE %s AUTO_INCREMENT OFFSET %d STRIDE %d", table, i+1, len(sh.shards))
		if _, err := s.exec(sh.routes.of(q), q, nil); err != nil {
			return fmt.Errorf("cluster: stride %s on shard %d: %w", table, i, err)
		}
	}
	return nil
}

// ClientStats snapshots the counters, summed over shards. A set of one
// leaves Shards at 0: its row is its one group's.
func (sh *shardSet) ClientStats() ClientStats {
	var s ClientStats
	telemetry.Load(&s, &sh.counters)
	if sh.sharded() {
		s.Shards = len(sh.shards)
	}
	for _, rs := range sh.shards {
		telemetry.Add(&s, rs.ClientStats())
	}
	return s
}

// Replicas returns the number of configured replicas, over all shards.
func (sh *shardSet) Replicas() int { return len(sh.addrs) }

// Healthy returns the number of replicas currently accepting traffic.
func (sh *shardSet) Healthy() int {
	n := 0
	for _, rs := range sh.shards {
		for _, r := range rs.replicas {
			if r.healthy.Load() {
				n++
			}
		}
	}
	return n
}

// Rejoin brings an ejected replica back: its stale pooled connections are
// dropped and, with syncData true, a healthy replica's data is copied onto
// it first (Sync, the replica-sync path). Rejoin blocks the broadcasts of
// every client in this process over the DSN until the copy completes, so
// the joiner comes back consistent; a client in another process is not
// blocked (DESIGN.md's DEV-write-order-one-process). Ids number shard 0's
// replicas first, then shard 1's, and so on — the order ReplicaStats
// reports.
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

// Stats aggregates the per-replica pools into one pool.Stats — the single
// "connections into the database tier" figure the cross-tier bottleneck
// heuristic consumes. Counters sum; latency figures take the worst replica.
// A set of one reports its group's row, under the group's pool name.
func (sh *shardSet) Stats() pool.Stats {
	if !sh.sharded() {
		return sh.shards[0].Stats()
	}
	s := pool.Stats{Name: "db-shards"}
	for _, rs := range sh.shards {
		telemetry.Add(&s, rs.Stats())
	}
	return s
}

// ReplicaStats reports the per-replica routing view for telemetry, in
// Rejoin's id order: the shards' replicas in shard order, each entry's Shard
// field set.
func (sh *shardSet) ReplicaStats() []telemetry.Replica {
	var out []telemetry.Replica
	for si, rs := range sh.shards {
		for _, r := range rs.replicas {
			ps := r.pool.Stats()
			row := telemetry.Replica{ID: len(out), Shard: si, Addr: r.addr, Healthy: r.healthy.Load(), Pool: &ps}
			telemetry.Load(&row, &r.replicaCells)
			out = append(out, row)
		}
	}
	return out
}

// ContentEpoch reports the cluster-wide write epoch: it advances on every
// committed write through any client sharing this DSN. The HTTP page cache
// keys freshness on it (internal/lb.PageCache); the app tier republishes it
// per response as the X-Content-Epoch header.
//
// It is the SUM of the per-shard epochs — every shard's committed
// writes advance it, so a page cached under the combined epoch is
// invalidated by a write through any shard. (A max would not be safe: two
// shards advancing in lockstep could leave the max unchanged while content
// moved.)
func (sh *shardSet) ContentEpoch() uint64 {
	var e uint64
	for _, rs := range sh.shards {
		e += rs.locks.epoch.Load()
	}
	return e
}

func (sh *shardSet) close() {
	for _, rs := range sh.shards {
		rs.close()
	}
	if sh.sharded() {
		releaseWriteLocks(sh.addrs)
	}
}

// ---- sessions: per-shard sub-sessions and two-phase commit ----

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

func (sh *shardSet) newTxn() *shardTxn {
	return &shardTxn{sh: sh, subs: make([]*replicaTxn, len(sh.shards)), maxSub: -1}
}

// exec routes one session statement. Outside a transaction the session
// adds nothing over the pool path; inside one, the statement's target is
// carried out on the participating shards' sub-sessions. A global-table
// statement in a transaction still runs on a participating sub-session:
// its reads must see the transaction's own writes, and its writes reach
// every shard because the transaction was opened all-shard.
func (s *shardTxn) exec(p *route, query string, args []sqldb.Value) (*sqldb.Result, error) {
	if s.failed {
		return nil, errSessionFailed
	}
	if !s.inTxn {
		return s.sh.exec(p, query, args)
	}
	t, err := s.sh.target(p, args)
	if err != nil {
		return nil, err
	}
	var sub *replicaTxn
	switch t.reach {
	case reachAny:
		sub, err = s.anySub()
	case reachOne:
		sub, err = s.sub(t.shard)
	case reachScatter:
		if err := s.allSubs(); err != nil {
			return nil, err
		}
		res, err := s.sh.scatterRead(p, args, s.subs)
		// The fan-out ran the subs concurrently, past subExec: fold their
		// poisoning in here, once they have all returned.
		for _, sub := range s.subs {
			s.failed = s.failed || sub.failed
		}
		return res, err
	case reachBroadcast:
		return s.subBroadcast(p, query, args)
	case reachSplit:
		return s.split(p, t.owners, args)
	}
	if err != nil {
		return nil, err
	}
	return s.subExec(sub, p, query, args)
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
func (s *shardTxn) split(p *route, owners []int, args []sqldb.Value) (*sqldb.Result, error) {
	ins := p.stmt.(*sqlparse.Insert)
	width := len(ins.Columns)
	vals := make([][]sqldb.Value, len(s.subs)) // by shard, row-major
	for row, shard := range owners {
		if len(ins.Rows[row]) != width {
			return nil, fmt.Errorf("cluster: %d values for %d columns in INSERT into %q", len(ins.Rows[row]), width, ins.Table)
		}
		for _, e := range ins.Rows[row] {
			v, err := sqldb.EvalConst(e, args)
			if err != nil {
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
			q := sqldb.InsertSQL(ins.Table, ins.Columns, k)
			res, err := s.subExec(sub, s.sh.routes.of(q), q, v[:k*width])
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
func (s *shardTxn) subBroadcast(p *route, query string, args []sqldb.Value) (*sqldb.Result, error) {
	if err := s.allSubs(); err != nil {
		return nil, err
	}
	results := make([]*sqldb.Result, len(s.subs))
	for i, sub := range s.subs {
		var err error
		if results[i], err = s.subExec(sub, p, query, args); err != nil {
			return nil, err
		}
	}
	return p.mergeWrite(results), nil
}

// subExec runs one statement on a sub-session, propagating its poisoning:
// a sub that aborted or transport-failed takes the whole coordinated
// transaction with it.
func (s *shardTxn) subExec(sub *replicaTxn, p *route, query string, args []sqldb.Value) (*sqldb.Result, error) {
	res, err := sub.exec(p, query, args)
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
		if _, sharded := s.sh.routes.byTable[t]; !sharded {
			all = true
		}
	}
	if all {
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
//
// Without an open transaction Commit is a no-op, like the database's own
// COMMIT.
func (s *shardTxn) Commit() error {
	if !s.inTxn {
		return nil
	}
	sh := s.sh
	defer s.closeTxn()
	open := 0
	for _, sub := range s.subs {
		if sub.open() {
			open++
		}
	}
	if open <= 1 {
		var err error
		for _, sub := range s.subs {
			if e := sub.Commit(); e != nil && err == nil {
				err = e
			}
		}
		if err != nil {
			s.failed = true
		}
		return err
	}
	for _, sub := range s.subs {
		if !sub.open() {
			continue
		}
		if err := sub.prepare(); err != nil {
			s.Rollback()
			s.failed = true
			return fmt.Errorf("cluster: 2pc prepare: %w", err)
		}
	}
	if sh.betweenPhases != nil {
		sh.betweenPhases()
	}
	sh.Shard2PCTxns.Add(1)
	var err error
	for _, sub := range s.subs {
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

// Rollback aborts the coordinated transaction on every open shard. The
// database's undo logs restore each replica to its pre-transaction state, so
// the replicas stay bit-identical across the abort. A shard whose rollback
// reached no replica fails the session.
func (s *shardTxn) Rollback() error {
	var err error
	for _, sub := range s.subs {
		if e := sub.Rollback(); e != nil {
			err = e
			s.failed = true
		}
	}
	s.closeTxn()
	return err
}

func (s *shardTxn) closeTxn() { s.inTxn, s.allShard, s.maxSub = false, false, -1 }

// open reports a sub-session participating in the open transaction; a
// shard the transaction never reached has none.
func (s *replicaTxn) open() bool { return s != nil && s.inTxn }

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
