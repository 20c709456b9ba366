package cluster

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/wire"
)

// route is the routing decision for one query text: whether it is a write,
// and for writes the tables whose cluster-wide write order must be
// serialized.
type route struct {
	// err refuses the text before any connection is borrowed or lock taken:
	// the parse error, as the database would report it (every replica
	// shares the client's parser), or ErrTxnControlText. Nothing else is
	// set.
	err   error
	write bool
	// stmt is the parsed statement — the one parse the client does per
	// distinct text, shared with the shard planner (shard.go).
	stmt sqlparse.Statement
	// tables lists the write-ordered tables (lower-cased, sorted, deduped).
	// Empty for reads; for a write whose table the statement does not name —
	// ALTER, PREPARE TRANSACTION — it holds the catch-all "".
	tables []string
	// readTables lists the tables a SELECT references (FROM plus JOINs,
	// lower-cased, sorted) — the set a cached result for this statement is
	// validated against. The dialect has no subqueries, so that is the
	// complete reference set. nil for every other statement, which makes it
	// uncacheable (see cache.go).
	readTables []string
}

// routes memoizes analyze per query text. The workloads repeat a small
// fixed statement set, so the parse is a one-time cost per distinct text.
type routes struct{ m sync.Map }

func (rs *routes) of(query string) route {
	if v, ok := rs.m.Load(query); ok {
		return v.(route)
	}
	r := analyze(query)
	rs.m.Store(query, r)
	return r
}

// analyze classifies a statement by parsing it.
func analyze(query string) route {
	st, err := sqlparse.Parse(query)
	if err != nil {
		return route{err: &wire.ServerError{Msg: err.Error()}}
	}
	switch st := st.(type) {
	case *sqlparse.Select:
		rt := route{stmt: st}
		if st.From.Table != "" {
			tables := []string{st.From.Table}
			for _, j := range st.Joins {
				tables = append(tables, j.Table.Table)
			}
			rt.readTables = normalize(tables)
		}
		return rt
	case *sqlparse.ShowTables, *sqlparse.ShowTableStatus, *sqlparse.ShowWALStatus:
		return route{stmt: st}
	case *sqlparse.Begin, *sqlparse.Commit, *sqlparse.Rollback:
		return route{err: ErrTxnControlText}
	case *sqlparse.Insert:
		return writeRoute(st, st.Table)
	case *sqlparse.Update:
		return writeRoute(st, st.Table)
	case *sqlparse.Delete:
		return writeRoute(st, st.Table)
	case *sqlparse.CreateTable:
		return writeRoute(st, st.Name)
	case *sqlparse.CreateIndex:
		return writeRoute(st, st.Table)
	case *sqlparse.DropTable:
		return writeRoute(st, st.Name)
	default:
		return writeRoute(st, "")
	}
}

func writeRoute(st sqlparse.Statement, table string) route {
	return route{write: true, stmt: st, tables: []string{strings.ToLower(table)}}
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
