package sim

// RWLock is a simulated readers-writer lock used to model table locks.
//
// Two admission policies are supported:
//
//   - FCFS (the default): waiters are granted strictly in arrival order; a
//     reader behind a waiting writer waits even if the lock is read-held.
//     This matches a fair queue, e.g. a lock manager inside the servlet
//     engine.
//   - Writer priority (MyISAM's policy, NewWriterPriorityRWLock): pending
//     write locks are always granted before pending read locks regardless
//     of arrival order. Under a steady stream of writers this starves
//     readers — the behaviour behind the throughput drop the paper observes
//     past the peak on the bookstore write mixes (§5.1).
type RWLock struct {
	sim      *Sim
	writePri bool
	readers  int
	writer   bool

	rq waiters // waiting readers
	wq waiters // waiting writers

	seq int64 // per-lock arrival counter for FCFS ordering

	waitAcc float64 // accumulated waiting time over all grants
}

// NewRWLock creates a FCFS lock attached to s.
func NewRWLock(s *Sim) *RWLock {
	return &RWLock{sim: s}
}

// NewWriterPriorityRWLock creates a lock with MyISAM-style writer priority.
func NewWriterPriorityRWLock(s *Sim) *RWLock {
	return &RWLock{sim: s, writePri: true}
}

// Acquire requests the lock. granted runs (synchronously if the lock is
// immediately available, otherwise when predecessors release) once the lock
// is held.
func (l *RWLock) Acquire(write bool, granted func()) {
	if granted == nil {
		panic("sim: RWLock.Acquire with nil granted")
	}
	l.seq++
	w := waiter{since: l.sim.Now(), seq: l.seq, granted: granted}
	if write {
		l.wq.push(w)
	} else {
		l.rq.push(w)
	}
	l.dispatch()
}

// Release releases one hold on the lock. write must match the corresponding
// Acquire.
func (l *RWLock) Release(write bool) {
	if write {
		if !l.writer {
			panic("sim: RWLock.Release(write) without write hold")
		}
		l.writer = false
	} else {
		if l.readers <= 0 {
			panic("sim: RWLock.Release(read) without read hold")
		}
		l.readers--
	}
	l.dispatch()
}

// dispatch grants as many waiters as the policy allows. The next candidate
// is the oldest writer under writer priority (MyISAM: all pending writes
// before any pending read) while one waits, and under FCFS whichever queue
// head arrived first.
func (l *RWLock) dispatch() {
	for {
		write := l.wq.len() > 0 && (l.writePri || l.rq.len() == 0 || l.wq.front().seq < l.rq.front().seq)
		var w waiter
		switch {
		case write:
			if l.writer || l.readers > 0 {
				return
			}
			w = l.wq.pop()
			l.writer = true
		case l.rq.len() == 0 || l.writer:
			return
		default:
			w = l.rq.pop()
			l.readers++
		}
		l.waitAcc += l.sim.Now() - w.since
		w.granted()
	}
}

// Holders returns the current number of holders (readers, or 1 for a writer).
func (l *RWLock) Holders() int {
	if l.writer {
		return 1
	}
	return l.readers
}

// QueueLen returns the number of waiters not yet granted.
func (l *RWLock) QueueLen() int { return l.rq.len() + l.wq.len() }

// TotalWait returns the accumulated waiting time across all grants.
func (l *RWLock) TotalWait() float64 { return l.waitAcc }
