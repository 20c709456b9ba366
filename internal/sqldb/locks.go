package sqldb

import "time"

// tableLock is a table's write lock — the whole of the engine's lock
// manager. Only writers meet it: an auto-commit write statement holds it for
// the statement, a transaction takes it at its first write to the table and
// keeps it to COMMIT or ROLLBACK (table-granular two-phase locking, txn.go).
// Reads never do (mvcc.go), and neither does a checkpoint (wal.go).
//
// Ordering rule. A transaction acquires in statement order, so two of them
// can form a cycle; every wait of theirs is timed (lockTimed) and a timeout
// aborts one. An auto-commit statement waits for its one lock holding
// nothing, so it is never part of a cycle and never costs a transaction its
// timeout.
//
// The lock is a one-slot channel: holding it is having a token in the slot,
// waiters queue in arrival order on the send.
type tableLock chan struct{}

func (l tableLock) lock() { l <- struct{}{} }

// lockTimed acquires like lock but gives up once timeout elapses, reporting
// false with nothing held.
func (l tableLock) lockTimed(timeout time.Duration) bool {
	select {
	case l <- struct{}{}:
		return true
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case l <- struct{}{}:
		return true
	case <-timer.C:
		return false
	}
}

func (l tableLock) unlock() { <-l }
