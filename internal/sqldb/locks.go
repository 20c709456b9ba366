package sqldb

import (
	"sync"
	"time"
)

// lockManager implements MyISAM-style table locking for real (goroutine)
// concurrency: shared read locks, exclusive write locks, and writer
// priority — a pending write lock blocks later read requests on the same
// table. Implicit per-statement locks bracket single statements; a
// transaction keeps each write lock it takes until it ends (txn.go).
//
// Ordering rule. A transaction acquires in statement order, so two of them
// can form a cycle; every wait of theirs is timed (lockTimed) and a timeout
// aborts one. Everything else — auto-commit statements, the live-fallback
// reads of a join (mvcc.go), a checkpoint's quiesce — waits for a lock
// only while holding none (lockReads), so it can never be part of a cycle
// and never costs a transaction its timeout.
//
// Since the snapshot-read path landed (mvcc.go), plain SELECTs rarely come
// here: the lock manager serves writers, the read-your-writes reads of open
// transactions, the reads of write-hot tables, and the brief read lock a
// snapshot refresh takes to copy committed state. Sessions that hold a
// *Table should go through DB.tableLockOf, which skips the map lookup via
// the pointer cached on the table at CREATE time.
type lockManager struct {
	mu     sync.Mutex
	tables map[string]*tableLock
}

type tableLock struct {
	mu          sync.Mutex
	cond        *sync.Cond
	readers     int
	writer      bool
	wantWriters int // pending write requests, for writer priority
}

func newLockManager() *lockManager {
	return &lockManager{tables: make(map[string]*tableLock)}
}

func (lm *lockManager) lockFor(table string) *tableLock {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	tl, ok := lm.tables[table]
	if !ok {
		tl = &tableLock{}
		tl.cond = sync.NewCond(&tl.mu)
		lm.tables[table] = tl
	}
	return tl
}

func (tl *tableLock) lock(write bool) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if write {
		tl.wantWriters++
		for tl.writer || tl.readers > 0 {
			tl.cond.Wait()
		}
		tl.wantWriters--
		tl.writer = true
		return
	}
	// Writer priority: readers yield to pending writers.
	for tl.writer || tl.wantWriters > 0 {
		tl.cond.Wait()
	}
	tl.readers++
}

// tryRLock takes the read lock when that needs no wait, and reports
// whether it did.
func (tl *tableLock) tryRLock() bool {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.writer || tl.wantWriters > 0 {
		return false
	}
	tl.readers++
	return true
}

// lockTimed acquires like lock but gives up once timeout elapses, returning
// false with nothing held. Transactions use it for every lock they take:
// their locks accumulate across statements in arbitrary table order, so a
// cycle between two transactions is possible — the timeout converts a
// would-be deadlock into an abort of one participant.
func (tl *tableLock) lockTimed(write bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// The timer broadcast takes tl.mu, so it serializes against the wait
	// loop below: waiters are either woken by it or observe the expired
	// deadline on their next check — no lost-wakeup window.
	timer := time.AfterFunc(timeout, func() {
		tl.mu.Lock()
		tl.cond.Broadcast()
		tl.mu.Unlock()
	})
	defer timer.Stop()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if write {
		tl.wantWriters++
		for tl.writer || tl.readers > 0 {
			if !time.Now().Before(deadline) {
				tl.wantWriters--
				tl.cond.Broadcast() // unblock readers yielding to us
				return false
			}
			tl.cond.Wait()
		}
		tl.wantWriters--
		tl.writer = true
		return true
	}
	for tl.writer || tl.wantWriters > 0 {
		if !time.Now().Before(deadline) {
			return false
		}
		tl.cond.Wait()
	}
	tl.readers++
	return true
}

func (tl *tableLock) unlock(write bool) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if write {
		tl.writer = false
	} else {
		tl.readers--
	}
	tl.cond.Broadcast()
}

// heldLock records one lock held by a session.
type heldLock struct {
	table string
	write bool
}

// lockReads takes the read side of every lock in the set — for whoever
// needs several tables at once outside a transaction. It waits for a lock
// only while holding none: when one of the set is not free at once,
// everything taken so far is released and that one is waited for next.
func lockReads(locks []*tableLock) {
	for wait := 0; wait < len(locks); {
		locks[wait].lock(false)
		busy := -1
		for i, tl := range locks {
			if i != wait && !tl.tryRLock() {
				busy = i
				break
			}
		}
		if busy < 0 {
			return
		}
		for i := 0; i < busy; i++ {
			if i != wait {
				locks[i].unlock(false)
			}
		}
		locks[wait].unlock(false)
		wait = busy
	}
}

func unlockReads(locks []*tableLock) {
	for _, tl := range locks {
		tl.unlock(false)
	}
}

// releaseSet unlocks the set a transaction accumulated.
func (lm *lockManager) releaseSet(held []heldLock) {
	// Release in reverse acquisition order.
	for i := len(held) - 1; i >= 0; i-- {
		lm.lockFor(held[i].table).unlock(held[i].write)
	}
}
