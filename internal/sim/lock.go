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
	name     string
	writePri bool
	readers  int
	writer   bool

	rq []*lockWaiter // waiting readers, FIFO
	wq []*lockWaiter // waiting writers, FIFO

	seq int64 // per-lock arrival counter for FCFS ordering

	waitAcc float64 // accumulated waiting time over all grants
}

type lockWaiter struct {
	since   float64
	granted func()
	seq     int64
}

// NewRWLock creates a FCFS lock attached to s.
func NewRWLock(s *Sim, name string) *RWLock {
	return &RWLock{sim: s, name: name}
}

// NewWriterPriorityRWLock creates a lock with MyISAM-style writer priority.
func NewWriterPriorityRWLock(s *Sim, name string) *RWLock {
	return &RWLock{sim: s, name: name, writePri: true}
}

// Name returns the lock name.
func (l *RWLock) Name() string { return l.name }

// Acquire requests the lock. granted runs (synchronously if the lock is
// immediately available, otherwise when predecessors release) once the lock
// is held.
func (l *RWLock) Acquire(write bool, granted func()) {
	if granted == nil {
		panic("sim: RWLock.Acquire with nil granted")
	}
	w := &lockWaiter{since: l.sim.Now(), granted: granted, seq: l.nextSeq()}
	if write {
		l.wq = append(l.wq, w)
	} else {
		l.rq = append(l.rq, w)
	}
	l.dispatch()
}

func (l *RWLock) nextSeq() int64 {
	l.seq++
	return l.seq
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

// dispatch grants as many waiters as the policy allows.
func (l *RWLock) dispatch() {
	for {
		var w *lockWaiter
		var write bool
		switch {
		case l.writePri:
			// MyISAM: all pending writes before any pending read.
			if len(l.wq) > 0 {
				if l.writer || l.readers > 0 {
					return
				}
				w, write = l.wq[0], true
			} else if len(l.rq) > 0 {
				if l.writer {
					return
				}
				w = l.rq[0]
			} else {
				return
			}
		default:
			// FCFS: strict arrival order across both queues.
			switch {
			case len(l.wq) == 0 && len(l.rq) == 0:
				return
			case len(l.rq) == 0 || (len(l.wq) > 0 && l.wq[0].seq < l.rq[0].seq):
				if l.writer || l.readers > 0 {
					return
				}
				w, write = l.wq[0], true
			default:
				if l.writer {
					return
				}
				w = l.rq[0]
			}
		}
		if write {
			l.wq = l.wq[1:]
			l.writer = true
		} else {
			l.rq = l.rq[1:]
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
func (l *RWLock) QueueLen() int { return len(l.rq) + len(l.wq) }

// TotalWait returns the accumulated waiting time across all grants.
func (l *RWLock) TotalWait() float64 { return l.waitAcc }
