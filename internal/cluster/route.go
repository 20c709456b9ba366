package cluster

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/wire"
)

// route is the client's one plan for a query text: whether it is a write,
// for writes the tables whose cluster-wide write order must be serialized,
// and on a sharded client where its rows live.
type route struct {
	// err refuses the text before any connection is borrowed or lock taken:
	// the parse error, as the database would report it (every replica
	// shares the client's parser), or ErrTxnControlText. Nothing else is
	// set.
	err   error
	write bool
	// commits marks the DDL the engine commits an open transaction before
	// (CREATE TABLE, CREATE INDEX, ALTER TABLE … AUTO_INCREMENT): a session
	// commits its transaction first and runs it in auto-commit.
	commits bool
	// stmt is the parsed statement — the one parse the client does per
	// distinct text.
	stmt sqlparse.Statement
	// tables lists the write-ordered tables (lower-cased, sorted, deduped).
	// Empty for reads; for a write whose table the statement does not name —
	// ALTER, PREPARE TRANSACTION — it holds the catch-all "".
	tables []string
	// readTables lists the tables a SELECT references (FROM and its JOIN,
	// lower-cased, sorted) — the set a cached result for this statement is
	// validated against. The dialect has no subqueries, so that is the
	// complete reference set. nil for every other statement, which makes it
	// uncacheable (see cache.go).
	readTables []string

	// The shard plan (shard.go's planShards), on a sharded client only.
	sharded bool            // a SELECT or DML referencing a sharded table
	exprs   []sqlparse.Expr // the shard-key expressions; nil: not pinned
	// keyed marks an INSERT naming its table's key column with a value the
	// router cannot resolve ahead of the engine.
	keyed bool
	// scatterSQL is the text each shard runs when a sharded SELECT
	// scatters, and appended whether it appends the ORDER BY key to the
	// select list for the merge to sort on and project off.
	scatterSQL string
	appended   bool
}

// routes memoizes analyze per query text, one per client. The workloads
// repeat a small fixed statement set, so the parse and the shard plan are a
// one-time cost per distinct text.
type routes struct {
	m       sync.Map          // query text -> *route
	byTable map[string]string // lower-cased sharded table -> key column; nil unsharded
}

func (rs *routes) of(query string) *route {
	if v, ok := rs.m.Load(query); ok {
		return v.(*route)
	}
	r := analyze(query, rs.byTable)
	rs.m.Store(query, r)
	return r
}

// analyze classifies a statement by parsing it and, given the sharded
// tables, plans where its rows live.
func analyze(query string, byTable map[string]string) *route {
	st, err := sqlparse.Parse(query)
	if err != nil {
		return &route{err: &wire.ServerError{Msg: err.Error()}}
	}
	r := &route{stmt: st}
	switch st := st.(type) {
	case *sqlparse.Select:
		if st.From.Table != "" {
			tables := []string{st.From.Table}
			if st.Join != nil {
				tables = append(tables, st.Join.Table.Table)
			}
			r.readTables = normalize(tables)
		}
	case *sqlparse.ShowTableStatus, *sqlparse.ShowWALStatus:
	case *sqlparse.Begin, *sqlparse.Commit, *sqlparse.Rollback:
		return &route{err: ErrTxnControlText}
	case *sqlparse.Insert:
		r.writes(st.Table)
	case *sqlparse.Update:
		r.writes(st.Table)
	case *sqlparse.Delete:
		r.writes(st.Table)
	case *sqlparse.CreateTable:
		r.writes(st.Name)
		r.commits = true
	case *sqlparse.CreateIndex:
		r.writes(st.Table)
		r.commits = true
	case *sqlparse.AlterAutoInc:
		r.writes("")
		r.commits = true
	default:
		r.writes("")
	}
	if byTable != nil {
		r.planShards(query, byTable)
	}
	return r
}

func (r *route) writes(table string) {
	r.write, r.tables = true, []string{strings.ToLower(table)}
}

// normalize lower-cases, sorts and dedupes a table list (the acquisition
// order of the write locks, mirroring LockManager's deadlock discipline).
func normalize(tables []string) []string {
	out := make([]string, 0, len(tables))
	for _, t := range tables {
		out = append(out, strings.ToLower(t))
	}
	sort.Strings(out)
	j := 0
	for i, t := range out {
		if i == 0 || t != out[j-1] {
			out[j] = t
			j++
		}
	}
	return out[:j]
}

// writeLocks serializes the cluster-wide write order per table: every
// broadcast acquires its tables' locks (in sorted order) before touching
// the first replica, so all replicas apply conflicting writes in one global
// order — the property that keeps AUTO_INCREMENT assignment and row state
// identical across backends.
//
// The catch-all key "" (a write naming no table, or a transaction declaring
// no write set) must conflict with every named writer, not just with other
// catch-all holders: it takes the global lock exclusively, while named sets
// share it. Without that, an undeclared transaction's writes could
// interleave differently with a named writer on different replicas.
type writeLocks struct {
	mu     sync.Mutex
	m      map[string]*sync.Mutex
	global sync.RWMutex

	// Mid-rejoin tracker. Rejoin marks the joining replica's address while
	// its data copy runs; read routing in every client sharing this
	// writeLocks instance (same DSN — including clients that never ejected
	// the replica themselves) skips the address, because a replica mid-sync
	// holds a half-copied data set. syncCount is the lock-free fast path for
	// the overwhelmingly common no-sync-running case.
	syncCount atomic.Int32
	syncMu    sync.Mutex
	syncAddrs map[string]int
	// tainted marks addresses whose last sync FAILED mid-copy (deadline
	// expiry over a stalled peer, typically): the replica holds a
	// half-copied data set no read may touch, so the mark outlives the
	// sync itself and only a later successful sync clears it.
	tainted map[string]bool

	// Commit-time table-version mirror (cache.go). Every cluster client
	// sharing this registry — the same per-DSN scope as the write-order
	// locks — bumps a written table's counter at the moment the write is
	// known committed server-side, so any client's cached query results
	// validate against the whole process's write traffic. wild is the
	// catch-all version for writes whose table set is unknown (every cache
	// entry validates against it too); epoch advances on every publication
	// and is the page cache's cross-tier content epoch (Client.ContentEpoch).
	versions sync.Map // table name -> *atomic.Uint64
	wild     atomic.Uint64
	epoch    atomic.Uint64
}

// catchAll is the table set that excludes every other writer over the DSN:
// an undeclared transaction's, and a rejoin's for the length of its copy.
var catchAll = []string{""}

func newWriteLocks() *writeLocks {
	return &writeLocks{m: make(map[string]*sync.Mutex), syncAddrs: make(map[string]int), tainted: make(map[string]bool)}
}

// beginSync marks addr as mid-rejoin; reads must not route there until the
// matching endSync.
func (w *writeLocks) beginSync(addr string) {
	w.syncMu.Lock()
	w.syncAddrs[addr]++
	w.syncMu.Unlock()
	w.syncCount.Add(1)
}

// endSync clears a beginSync mark. ok reports whether the copy completed:
// a failed sync taints the address — syncing() keeps returning true, so
// every client sharing the DSN keeps routing reads away from the
// half-copied data set — until a later sync succeeds.
func (w *writeLocks) endSync(addr string, ok bool) {
	w.syncMu.Lock()
	if w.syncAddrs[addr]--; w.syncAddrs[addr] <= 0 {
		delete(w.syncAddrs, addr)
	}
	// Ordering matters for syncing()'s lock-free fast path: a fresh taint
	// inherits this sync's syncCount contribution (no decrement at all)
	// rather than decrementing and re-incrementing, so the counter never
	// transiently hits zero while the half-copied replica still needs
	// reads routed away from it.
	if !ok {
		if w.tainted[addr] {
			w.syncCount.Add(-1)
		} else {
			w.tainted[addr] = true
		}
	} else {
		if w.tainted[addr] {
			delete(w.tainted, addr)
			w.syncCount.Add(-1)
		}
		w.syncCount.Add(-1)
	}
	w.syncMu.Unlock()
}

// syncing reports whether addr is currently mid-rejoin, or tainted by a
// failed rejoin whose half-copied data set was never overwritten.
func (w *writeLocks) syncing(addr string) bool {
	if w.syncCount.Load() == 0 {
		return false
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncAddrs[addr] > 0 || w.tainted[addr]
}

// lockRegistry shares one writeLocks instance per database — keyed by the
// client's replica address set — across every cluster client in the
// process. A replicated application tier runs one client per backend
// (internal/lb spreads containers, each with its own client over the same
// DSN); write ordering must span them, or two backends' read-modify-write
// transactions could both read before either writes — the lost update the
// per-client locks already exclude within one backend. This is the
// C-JDBC-controller property reduced to one process; entries are
// refcounted so a closed lab releases its registry slot.
var lockRegistry = struct {
	mu sync.Mutex
	m  map[string]*sharedLocks
}{m: make(map[string]*sharedLocks)}

type sharedLocks struct {
	locks *writeLocks
	refs  int
}

// registryKey canonicalizes a replica address set. Order is ignored: two
// clients listing the same backends must conflict on the same tables even
// if misconfigured with different replica orders.
func registryKey(addrs []string) string {
	return strings.Join(normalize(addrs), ",")
}

// acquireWriteLocks returns the shared writeLocks for the address set,
// creating it on first use.
func acquireWriteLocks(addrs []string) *writeLocks {
	key := registryKey(addrs)
	lockRegistry.mu.Lock()
	defer lockRegistry.mu.Unlock()
	e, ok := lockRegistry.m[key]
	if !ok {
		e = &sharedLocks{locks: newWriteLocks()}
		lockRegistry.m[key] = e
	}
	e.refs++
	return e.locks
}

// releaseWriteLocks drops one reference, freeing the entry at zero.
func releaseWriteLocks(addrs []string) {
	key := registryKey(addrs)
	lockRegistry.mu.Lock()
	defer lockRegistry.mu.Unlock()
	if e, ok := lockRegistry.m[key]; ok {
		if e.refs--; e.refs <= 0 {
			delete(lockRegistry.m, key)
		}
	}
}

func (w *writeLocks) lockFor(table string) *sync.Mutex {
	w.mu.Lock()
	defer w.mu.Unlock()
	l, ok := w.m[table]
	if !ok {
		l = &sync.Mutex{}
		w.m[table] = l
	}
	return l
}

// acquire locks the (sorted, deduped) table set and returns an idempotent
// release. A set containing the catch-all "" excludes all writers.
func (w *writeLocks) acquire(tables []string) (release func()) {
	exclusive := false
	for _, t := range tables {
		if t == "" {
			exclusive = true
		}
	}
	if exclusive {
		w.global.Lock()
	} else {
		w.global.RLock()
	}
	held := make([]*sync.Mutex, 0, len(tables))
	for _, t := range tables {
		if t == "" {
			continue // covered by the exclusive global hold
		}
		l := w.lockFor(t)
		l.Lock()
		held = append(held, l)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := len(held) - 1; i >= 0; i-- {
				held[i].Unlock()
			}
			if exclusive {
				w.global.Unlock()
			} else {
				w.global.RUnlock()
			}
		})
	}
}
