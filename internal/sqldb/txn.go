package sqldb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the transaction subsystem: BEGIN/COMMIT/ROLLBACK with a
// per-session row-level undo log over the MyISAM-style storage. A
// transaction acquires each table's write lock the first time it writes the
// table and holds it until commit or rollback (table-granular two-phase
// locking); every lock a transaction takes — including the short read locks
// of its SELECTs — is acquired with a wait timeout, and a timeout aborts
// the whole transaction, converting lock cycles between transactions into a
// deterministic "deadlock wait timeout" error instead of a hang. Within a
// statement, multi-table lock sets are still acquired in sorted order.
//
// Statements inside a transaction are individually atomic: a statement that
// fails midway (say row 3 of a multi-row INSERT hitting a duplicate key)
// is undone back to its own start, and the transaction continues — MySQL's
// statement-level atomicity.
//
// Rollback is purely deterministic: undo records are applied in reverse,
// restoring row images, index postings, scan order, and the AUTO_INCREMENT
// and rowid counters, so an aborted transaction leaves the database
// bit-identical to its pre-transaction state — the property the replicated
// cluster relies on to keep backends identical across aborts.

// ErrLockWaitTimeout is wrapped by errors returned when a transaction's
// lock wait times out; the transaction has been rolled back.
var ErrLockWaitTimeout = errors.New("lock wait timeout, transaction rolled back")

// defaultLockWait bounds how long a transaction waits for any table lock
// before aborting. Both benchmarks' transactions run in microseconds, so a
// quarter second of waiting means a lock cycle, not contention.
const defaultLockWait = 250 * time.Millisecond

// SetLockWaitTimeout overrides the transaction lock-wait timeout (tests use
// short values to exercise the deadlock-abort path quickly). Zero or
// negative restores the default.
func (db *DB) SetLockWaitTimeout(d time.Duration) {
	if d <= 0 {
		d = defaultLockWait
	}
	db.lockWaitNanos.Store(int64(d))
}

func (db *DB) lockWait() time.Duration {
	if n := db.lockWaitNanos.Load(); n > 0 {
		return time.Duration(n)
	}
	return defaultLockWait
}

// TxnStats is the transaction subsystem's observability surface: counters
// since boot, reported by the database tier's telemetry.
type TxnStats struct {
	Begins           int64 `json:"begins"`
	Commits          int64 `json:"commits"`
	Rollbacks        int64 `json:"rollbacks"`
	DeadlockTimeouts int64 `json:"deadlock_timeouts"`
	// LockWaitNanos is cumulative time transactions spent blocked waiting
	// for table locks — the contention observable the bottleneck heuristic
	// charges to the database tier.
	LockWaitNanos int64 `json:"lock_wait_nanos"`
}

// txnCounters aggregates the DB-wide transaction counters.
type txnCounters struct {
	begins           atomic.Int64
	commits          atomic.Int64
	rollbacks        atomic.Int64
	deadlockTimeouts atomic.Int64
	lockWaitNanos    atomic.Int64
}

// TxnStats snapshots the transaction counters.
func (db *DB) TxnStats() TxnStats {
	return TxnStats{
		Begins:           db.txns.begins.Load(),
		Commits:          db.txns.commits.Load(),
		Rollbacks:        db.txns.rollbacks.Load(),
		DeadlockTimeouts: db.txns.deadlockTimeouts.Load(),
		LockWaitNanos:    db.txns.lockWaitNanos.Load(),
	}
}

// undoRec is one inverse operation. Records are applied newest-first.
type undoRec struct {
	t  *Table
	id int64
	// kind discriminates the union below.
	kind undoKind
	// old holds the pre-image: changed columns for an update, the full row
	// for a delete.
	old map[int]Value
	row Row
	// prevNextID / prevNextAI restore the table counters for an insert.
	prevNextID int64
	prevNextAI int64
}

type undoKind int

const (
	undoInsert undoKind = iota
	undoUpdate
	undoDelete
)

func (r *undoRec) revert() {
	switch r.kind {
	case undoInsert:
		r.t.undoInsert(r.id, r.prevNextID, r.prevNextAI)
	case undoUpdate:
		r.t.restoreCols(r.id, r.old)
	case undoDelete:
		r.t.restoreRow(r.id, r.row)
	}
}

// txn is a session's active transaction: its undo log, the write locks it
// holds until commit or rollback, and the tables those locks cover (for the
// snapshot publications at commit).
type txn struct {
	undo   []undoRec
	held   []heldLock
	tables []*Table // write-locked tables, same order as held
	// logged accumulates the transaction's successful write statements for
	// the WAL: the whole list becomes one record batch at COMMIT. Failed
	// statements are absent — their effects were reverted (statement
	// atomicity), so replay must not re-run them. A rolled-back
	// transaction's list is discarded with the txn: it never touches the
	// log.
	logged []walStmt
	// prepared marks phase one of two-phase commit: the transaction holds
	// its locks and undo log but accepts no further statements until COMMIT
	// or ROLLBACK. The in-memory engine's commit of a prepared transaction
	// cannot fail — undo is discarded, publications are lock-protected —
	// which is the property the cluster's 2PC coordinator relies on.
	prepared bool
}

// add appends an undo record.
func (tx *txn) add(r undoRec) { tx.undo = append(tx.undo, r) }

// mark returns the current undo position (the statement-atomicity anchor).
func (tx *txn) mark() int { return len(tx.undo) }

// revertTo undoes everything after mark, newest first.
func (tx *txn) revertTo(mark int) {
	for i := len(tx.undo) - 1; i >= mark; i-- {
		tx.undo[i].revert()
	}
	tx.undo = tx.undo[:mark]
}

// holdsWrite reports whether the transaction holds table's write lock.
func (tx *txn) holdsWrite(table string) bool {
	for _, h := range tx.held {
		if h.table == table {
			return true
		}
	}
	return false
}

// holdsWriteAny reports whether the transaction write-locks any of tabs —
// the read-your-writes test that forces a SELECT off the snapshot path.
func (tx *txn) holdsWriteAny(tabs []*Table) bool {
	for _, t := range tabs {
		if tx.holdsWrite(t.name) {
			return true
		}
	}
	return false
}

// InTxn reports whether a transaction is open on the session.
func (s *Session) InTxn() bool { return s.tx != nil }

// execBegin opens a transaction. A transaction already open is implicitly
// committed first — MySQL's rule for START TRANSACTION.
func (s *Session) execBegin() (*Result, error) {
	s.implicitCommit()
	s.tx = &txn{}
	s.db.txns.begins.Add(1)
	return &Result{}, nil
}

// execCommit commits the open transaction; with none open it is a no-op,
// as in MySQL.
func (s *Session) execCommit() (*Result, error) {
	if s.tx != nil {
		s.commitTxn()
	}
	return &Result{}, nil
}

// execPrepareTxn is PREPARE TRANSACTION: phase one of two-phase commit.
// Every lock the transaction will ever need is already held and every
// statement has been applied, so a prepared transaction can always commit;
// the session merely latches out further statements. A session that closes
// (connection drop) still rolls back — the in-memory engine has no durable
// prepared state, a limitation PROTOCOL.md documents.
func (s *Session) execPrepareTxn() (*Result, error) {
	if s.tx == nil {
		return nil, fmt.Errorf("sqldb: PREPARE TRANSACTION outside a transaction")
	}
	s.tx.prepared = true
	return &Result{}, nil
}

// execRollback rolls the open transaction back; a no-op with none open.
func (s *Session) execRollback() (*Result, error) {
	if s.tx != nil {
		s.rollbackTxn()
		s.db.txns.rollbacks.Add(1)
	}
	return &Result{}, nil
}

// commitTxn discards the undo log and releases the held write locks. Each
// written table is published first — still under its write lock — so the
// transaction's effects on a table become visible to snapshot readers
// atomically, and only at commit. The WAL record — one batch for the whole
// transaction, so a torn tail drops it atomically — is appended under the
// same locks; the committer waits for its fsync only after they drop.
func (s *Session) commitTxn() {
	if w := s.db.wal; w != nil && len(s.tx.logged) > 0 {
		s.notePending(w.appendBatch(s.tx.logged))
	}
	for _, t := range s.tx.tables {
		t.publish()
	}
	s.db.locks.releaseSet(s.tx.held)
	s.tx = nil
	s.db.txns.commits.Add(1)
}

// rollbackTxn applies the undo log in reverse, then releases the locks.
// Undo runs while the write locks are still held, so no other session
// observes the intermediate states.
func (s *Session) rollbackTxn() {
	s.tx.revertTo(0)
	s.db.locks.releaseSet(s.tx.held)
	s.tx = nil
}

// abortTxn is the deadlock-timeout exit: roll back, count, and surface a
// wrapped ErrLockWaitTimeout for the statement that timed out.
func (s *Session) abortTxn(table string) error {
	s.rollbackTxn()
	s.db.txns.rollbacks.Add(1)
	s.db.txns.deadlockTimeouts.Add(1)
	return fmt.Errorf("sqldb: %w (table %q)", ErrLockWaitTimeout, table)
}

// txnWriteLock ensures the transaction holds table's write lock, acquiring
// it with the wait timeout. On timeout the transaction is aborted and the
// returned error wraps ErrLockWaitTimeout.
func (s *Session) txnWriteLock(t *Table) error {
	if s.tx.holdsWrite(t.name) {
		return nil
	}
	start := time.Now()
	ok := s.db.tableLockOf(t).lockTimed(true, s.db.lockWait())
	s.db.txns.lockWaitNanos.Add(time.Since(start).Nanoseconds())
	if !ok {
		return s.abortTxn(t.name)
	}
	s.tx.held = append(s.tx.held, heldLock{table: t.name, write: true})
	s.tx.tables = append(s.tx.tables, t)
	return nil
}

// txnReadLocks takes short (statement-scoped) read locks for the tables a
// SELECT inside a transaction touches, skipping tables whose write lock the
// transaction already holds. Names are sorted and deduped first (the same
// deadlock-avoidance order every lock set uses); each acquisition is timed,
// and a timeout aborts the transaction. It returns a release for the
// acquired set.
func (s *Session) txnReadLocks(tables []*Table) (release func(), err error) {
	names := make([]string, 0, len(tables))
	for _, t := range tables {
		if !s.tx.holdsWrite(t.name) {
			names = append(names, t.name)
		}
	}
	sortStrings(names)
	var acquired []heldLock
	releaseAcquired := func() { s.db.locks.releaseSet(acquired) }
	for i, n := range names {
		if i > 0 && n == names[i-1] {
			continue
		}
		start := time.Now()
		ok := s.db.locks.lockFor(n).lockTimed(false, s.db.lockWait())
		s.db.txns.lockWaitNanos.Add(time.Since(start).Nanoseconds())
		if !ok {
			releaseAcquired()
			return nil, s.abortTxn(n)
		}
		acquired = append(acquired, heldLock{table: n})
	}
	return releaseAcquired, nil
}

// withTxnLock brackets a write statement inside the transaction: the table
// write lock is acquired (and kept), and the statement's effects are undone
// if it fails partway — statement-level atomicity. A successful statement
// joins the transaction's WAL batch (logged at COMMIT); a failed one was
// reverted and is not replayable state.
func (s *Session) withTxnLock(table, src string, args []Value, fn func(*Table) (*Result, error)) (*Result, error) {
	t, err := s.db.table(table)
	if err != nil {
		return nil, err
	}
	if err := s.txnWriteLock(t); err != nil {
		return nil, err
	}
	mark := s.tx.mark()
	res, err := fn(t)
	if err != nil {
		s.tx.revertTo(mark)
		return nil, err
	}
	if s.db.wal != nil && src != "" {
		s.tx.logged = append(s.tx.logged, walStmt{q: src, args: args})
	}
	return res, nil
}
