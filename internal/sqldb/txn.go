package sqldb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the transaction subsystem: BEGIN/COMMIT/ROLLBACK over
// private forks. A transaction acquires each table's write lock the first
// time it writes the table and holds it until commit or rollback
// (table-granular two-phase locking); every lock it takes is acquired with a
// wait timeout, and a timeout aborts the whole transaction, converting lock
// cycles between transactions into a deterministic "deadlock wait timeout"
// error instead of a hang. Its reads take no lock at all (mvcc.go).
//
// With the lock comes a fork: an O(1) clone of the table's committed state
// (table.go) that the transaction's statements write and its SELECTs read.
// The committed state is untouched until COMMIT swaps each fork in, so
// ROLLBACK — and a lock-timeout abort, and a dropped connection — is
// dropping the forks: the database is bit-identical to its pre-transaction
// state, rows, index postings, scan order, AUTO_INCREMENT and rowid counters
// included, by construction. That is the property the replicated cluster
// relies on to keep backends identical across aborts.
//
// Statements inside a transaction are individually atomic: a statement that
// fails midway (say row 3 of a multi-row INSERT hitting a duplicate key)
// drops the fork back to a clone retained at the statement's start, and the
// transaction continues — MySQL's statement-level atomicity.

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

// txn is a session's active transaction: the tables whose write lock it
// holds until commit or rollback, and its private fork of each.
type txn struct {
	held  []*Table // catalog tables, in acquisition order
	forks []*Table // forks[i] is the transaction's copy of held[i]
	// logged accumulates the transaction's successful write statements for
	// the WAL: the whole list becomes one record batch at COMMIT. Failed
	// statements are absent — their effects were dropped (statement
	// atomicity), so replay must not re-run them. A rolled-back
	// transaction's list is discarded with the txn: it never touches the
	// log.
	logged []walStmt
	// prepared marks phase one of two-phase commit: the transaction holds
	// its locks and forks but accepts no further statements until COMMIT
	// or ROLLBACK. The in-memory engine's commit of a prepared transaction
	// cannot fail — it is a pointer swap per table under locks already
	// held — which is the property the cluster's 2PC coordinator relies on.
	prepared bool
}

// fork returns the transaction's copy of t, nil when it has not written t.
func (tx *txn) fork(t *Table) *Table {
	for i, h := range tx.held {
		if h == t {
			return tx.forks[i]
		}
	}
	return nil
}

// InTxn reports whether a transaction is open on the session.
func (s *Session) InTxn() bool { return s.tx != nil }

// execBegin opens a transaction. A transaction already open is implicitly
// committed first — MySQL's rule for BEGIN.
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
	}
	return &Result{}, nil
}

// commitTxn swaps each fork in as its table's committed state and bumps the
// version — per table under its leaf mutex, so the transaction's effects on
// a table become visible to readers atomically, and only now — then releases
// the write locks. The WAL record — one batch for the whole transaction, so
// a torn tail drops it atomically — is appended in the same commit section,
// under the same locks; the committer waits for its fsync only after they
// drop.
func (s *Session) commitTxn() {
	tx := s.tx
	s.db.commitMu.RLock()
	for i, t := range tx.held {
		t.mu.Lock()
		t.tableState = tx.forks[i].tableState
		t.version.Add(1)
		t.mu.Unlock()
	}
	if w := s.db.wal; w != nil && len(tx.logged) > 0 {
		s.notePending(w.appendBatch(tx.logged))
	}
	s.db.commitMu.RUnlock()
	s.endTxn()
	s.db.txns.commits.Add(1)
}

// rollbackTxn drops the forks: no other session ever saw them.
func (s *Session) rollbackTxn() {
	s.endTxn()
	s.db.txns.rollbacks.Add(1)
}

// endTxn releases the held write locks in reverse acquisition order.
func (s *Session) endTxn() {
	for i := len(s.tx.held) - 1; i >= 0; i-- {
		s.tx.held[i].lock.unlock()
	}
	s.tx = nil
}

// abortTxn is the deadlock-timeout exit: roll back, count, and surface a
// wrapped ErrLockWaitTimeout for the statement that timed out.
func (s *Session) abortTxn(table string) error {
	s.rollbackTxn()
	s.db.txns.deadlockTimeouts.Add(1)
	return fmt.Errorf("sqldb: %w (table %q)", ErrLockWaitTimeout, table)
}

// txnFork returns the transaction's fork of t, first acquiring t's write
// lock with the wait timeout and cloning the committed state when this is
// the transaction's first write to t. On timeout the transaction is aborted
// and the returned error wraps ErrLockWaitTimeout.
func (s *Session) txnFork(t *Table) (*Table, error) {
	if f := s.tx.fork(t); f != nil {
		return f, nil
	}
	start := time.Now()
	ok := t.lock.lockTimed(s.db.lockWait())
	s.db.txns.lockWaitNanos.Add(time.Since(start).Nanoseconds())
	if !ok {
		return nil, s.abortTxn(t.name)
	}
	t.mu.Lock()
	f := t.detach()
	t.mu.Unlock()
	s.tx.held = append(s.tx.held, t)
	s.tx.forks = append(s.tx.forks, f)
	return f, nil
}

// execTxnDML runs a write statement inside the transaction, on its fork of
// the table, and drops the fork back to where the statement found it if the
// statement fails partway — statement-level atomicity. A successful
// statement joins the transaction's WAL batch (logged at COMMIT); a failed
// one left nothing to replay.
func (s *Session) execTxnDML(t *Table, src string, args []Value, fn func(*Table) (*Result, error)) (*Result, error) {
	f, err := s.txnFork(t)
	if err != nil {
		return nil, err
	}
	start := f.tableState.clone()
	res, err := fn(f)
	if err != nil {
		f.tableState = start
		return nil, err
	}
	if s.db.wal != nil && src != "" {
		s.tx.logged = append(s.tx.logged, walStmt{q: src, args: args})
	}
	return res, nil
}
