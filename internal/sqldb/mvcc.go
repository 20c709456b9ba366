package sqldb

import (
	"errors"
	"sync/atomic"
	"time"
)

// This file is the multi-version read path: copy-on-write table versions
// published at commit, so read-only statements (and the reads of
// transactions that have not written the referenced tables) execute against
// an immutable snapshot of the last committed state and never touch the
// table lock manager — no read locks, no lock-wait, no interaction with the
// 2PL writer path, which keeps PR-4 semantics unchanged for writers.
//
// Mechanics. Every table carries a version counter that writers bump while
// still holding the table's write lock, at the moment their effects become
// committed state: at the end of an auto-commit DML statement, and at
// COMMIT for transactional writes — one bump per written table, before the
// locks release, so within a table a transaction's effects publish
// atomically. Rollback restores the pre-transaction image and publishes
// nothing.
//
// The snapshot itself is built lazily by the first reader that notices the
// published version moved: it takes the table's read lock once (waiting for
// the committing writer to release, exactly as a locking read would), copies
// the row map, scan order and indexes into a frozen Table, and installs it
// for every subsequent reader. Rows are immutable once stored — update
// replaces the row slice instead of mutating it (see Table.update) — so the
// copy shares row storage with the live table and costs O(rows), paid once
// per commit per reading table rather than per read. The rebuild is
// adaptive (snapRefreshMin): a table whose snapshots die before serving
// enough reads to amortize the clone routes those reads to the classic
// locked path instead of recloning per commit. While a transaction holds a
// table's write lock but has not yet published, readers keep serving the
// previous version without blocking — the consistent nonlocking read of
// InnoDB's READ COMMITTED.
//
// Visibility rules (DESIGN.md §4b): a snapshot read sees every transaction
// that committed before the statement started and nothing of any
// transaction still in flight; a statement that joins several tables takes
// each table's latest committed version independently; a transaction's own
// reads switch to the live locked path for tables it has write-locked
// (read-your-writes), and stay on snapshots for everything else.

// errSnapshotWait is the internal marker for a snapshot refresh that timed
// out waiting for a committing writer inside a transaction; the caller
// converts it into the transaction's deadlock-timeout abort.
var errSnapshotWait = errors.New("sqldb: snapshot refresh lock wait timed out")

// MVCCStats is the snapshot-read subsystem's observability surface.
type MVCCStats struct {
	// SnapshotReads counts SELECT statements served entirely from frozen
	// snapshots.
	SnapshotReads int64 `json:"snapshot_reads"`
	// LockBypasses counts per-table read-lock acquisitions those statements
	// avoided: tables served from a current snapshot without touching the
	// lock manager at all.
	LockBypasses int64 `json:"lock_bypasses"`
	// Refreshes counts snapshot rebuilds — one per (commit, first
	// subsequent reader) pair, the amortized copy-on-write cost.
	Refreshes int64 `json:"refreshes"`
	// LiveFallbacks counts per-table reads the adaptive policy routed to
	// the classic locked path instead of recloning a write-hot table (the
	// outgoing snapshot had not served enough reads to amortize a rebuild).
	LiveFallbacks int64 `json:"live_fallbacks"`
}

// mvccCounters aggregates the DB-wide snapshot-read counters.
type mvccCounters struct {
	snapReads     atomic.Int64
	lockBypasses  atomic.Int64
	refreshes     atomic.Int64
	liveFallbacks atomic.Int64
}

// MVCCStats snapshots the snapshot-read counters.
func (db *DB) MVCCStats() MVCCStats {
	return MVCCStats{
		SnapshotReads: db.mvcc.snapReads.Load(),
		LockBypasses:  db.mvcc.lockBypasses.Load(),
		Refreshes:     db.mvcc.refreshes.Load(),
		LiveFallbacks: db.mvcc.liveFallbacks.Load(),
	}
}

// publish marks t's committed state as changed. It must be called while the
// table's write lock is still held, so a concurrent snapshot refresh — which
// takes the read lock — cannot copy a half-published state.
func (t *Table) publish() { t.version.Add(1) }

// TableVersion reports a table's commit-time version counter: it advances
// once per committed publication of the table's state (write commits and
// DDL), never on aborted transactions — the rolled-back writes were never
// published. This is the engine-side ground truth the caching tier's
// client-side version mirror approximates (internal/cluster, cache.go);
// tests assert the two agree on the publish/no-publish decision. Unknown
// tables report 0.
func (db *DB) TableVersion(name string) uint64 {
	t, err := db.table(name)
	if err != nil {
		return 0
	}
	return t.version.Load()
}

// view returns the installed snapshot when it is still current, lock-free.
func (t *Table) view() (*Table, bool) {
	sp := t.snap.Load()
	if sp != nil && sp.snapSeq == t.version.Load() {
		t.snapHits.Add(1)
		return sp, true
	}
	return nil, false
}

// snapRefreshMin is the adaptive-refresh threshold: a stale snapshot is
// recloned only if the outgoing one served at least this many lock-free
// reads. A write-hot table whose snapshots die before paying for themselves
// stops being recloned per commit — its readers fall back to the classic
// short read-lock path instead (the pre-MVCC behavior), while read-mostly
// tables keep the lock-free path. The first snapshot of a table is always
// built, so purely read-only tables never touch the lock manager.
const snapRefreshMin = 2

// refreshSnap rebuilds t's snapshot from the last committed state. The copy
// runs under the table's read lock — the one place the snapshot path still
// meets the lock manager, paid only when the committed version moved since
// the last refresh. timed applies the transaction lock-wait discipline: a
// refresh on behalf of an open transaction aborts on timeout (the caller
// maps errSnapshotWait to the deadlock-timeout abort) instead of waiting
// forever behind a stuck writer.
func (t *Table) refreshSnap(db *DB, timed bool) (*Table, error) {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if sp := t.snap.Load(); sp != nil && sp.snapSeq == t.version.Load() {
		return sp, nil // another reader refreshed while we queued
	}
	tl := db.tableLockOf(t)
	if timed {
		start := time.Now()
		ok := tl.lockTimed(false, db.lockWait())
		db.txns.lockWaitNanos.Add(time.Since(start).Nanoseconds())
		if !ok {
			return nil, errSnapshotWait
		}
	} else {
		tl.lock(false)
	}
	sp := t.freeze()
	tl.unlock(false)
	t.snap.Store(sp)
	t.snapHits.Store(0)
	db.mvcc.refreshes.Add(1)
	return sp, nil
}

// snapshots resolves a view for every table of a read-only statement.
// Tables whose installed snapshot is current are served without any
// lock-manager interaction; a stale one pays one refresh — unless the dying
// snapshot never amortized its clone (snapRefreshMin), in which case the
// live table is read under a short statement-scoped read lock instead.
// Inside a transaction the refresh and the fallback locks follow its timed
// lock-wait discipline. The returned release frees the fallback locks (a
// no-op when every table came from a snapshot) and must be held until the
// statement finishes executing against the views.
func (s *Session) snapshots(tabs []*Table) ([]*Table, func(), error) {
	views := make([]*Table, len(tabs))
	bypassed := 0
	var live []*Table
	for i, t := range tabs {
		if sp, ok := t.view(); ok {
			views[i] = sp
			bypassed++
			continue
		}
		if t.snap.Load() != nil && t.snapHits.Load() < snapRefreshMin {
			live = append(live, t) // write-hot: views[i] filled below
			continue
		}
		sp, err := t.refreshSnap(s.db, s.tx != nil)
		if err != nil {
			if errors.Is(err, errSnapshotWait) {
				return nil, nil, s.abortTxn(t.name)
			}
			return nil, nil, err
		}
		views[i] = sp
	}
	s.db.mvcc.lockBypasses.Add(int64(bypassed))
	if len(live) == 0 {
		s.db.mvcc.snapReads.Add(1)
		return views, func() {}, nil
	}
	release, err := s.liveReadLocks(live)
	if err != nil {
		return nil, nil, err
	}
	for i, t := range tabs {
		if views[i] == nil {
			views[i] = t
		}
	}
	s.db.mvcc.liveFallbacks.Add(int64(len(live)))
	return views, release, nil
}

// liveReadLocks takes statement-scoped read locks on the fallback tables.
// Inside a transaction the acquisitions are timed and a timeout aborts it.
// Outside one they go through lockReads: a statement that blocked on a
// second table while holding the first would be half of a lock cycle with a
// transaction writing the two in the opposite order, which only that
// transaction's timeout could break.
func (s *Session) liveReadLocks(live []*Table) (func(), error) {
	if s.tx != nil {
		return s.txnReadLocks(live)
	}
	locks := make([]*tableLock, len(live))
	for i, t := range live {
		locks[i] = s.db.tableLockOf(t)
	}
	lockReads(locks)
	return func() { unlockReads(locks) }, nil
}
