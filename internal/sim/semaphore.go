package sim

// Semaphore is a FCFS counting semaphore, used to model bounded resources
// such as database connection pools: the number of queries concurrently
// executing in the database is limited by the connections the engine tier
// holds, which in the real system is what keeps a saturated MySQL from
// time-slicing hundreds of queries at once.
type Semaphore struct {
	sim   *Sim
	cap   int
	held  int
	queue waiters

	waitAcc float64
}

// waiter is a parked request: when it arrived, its place in arrival order
// where a lock keeps two queues, and what runs once it is granted.
type waiter struct {
	since   float64
	seq     int64
	granted func()
}

// waiters is a FIFO of parked requests. pop clears the slot it vacates, so
// the backing array keeps no granted closure reachable.
type waiters []waiter

func (q *waiters) push(w waiter) { *q = append(*q, w) }

func (q *waiters) pop() waiter {
	w := (*q)[0]
	(*q)[0] = waiter{}
	*q = (*q)[1:]
	return w
}

// NewSemaphore creates a semaphore with the given capacity (>0).
func NewSemaphore(s *Sim, capacity int) *Semaphore {
	if capacity <= 0 {
		panic("sim: Semaphore capacity must be positive")
	}
	return &Semaphore{sim: s, cap: capacity}
}

// TotalWait returns the accumulated waiting time across grants.
func (sem *Semaphore) TotalWait() float64 { return sem.waitAcc }

// Acquire requests a slot; granted runs synchronously if one is free,
// otherwise when a predecessor releases.
func (sem *Semaphore) Acquire(granted func()) {
	if granted == nil {
		panic("sim: Semaphore.Acquire with nil granted")
	}
	if sem.held < sem.cap && len(sem.queue) == 0 {
		sem.held++
		granted()
		return
	}
	sem.queue.push(waiter{since: sem.sim.Now(), granted: granted})
}

// Release frees one slot, granting the oldest waiter if any.
func (sem *Semaphore) Release() {
	if sem.held <= 0 {
		panic("sim: Semaphore.Release without hold")
	}
	sem.held--
	if len(sem.queue) > 0 {
		w := sem.queue.pop()
		sem.waitAcc += sem.sim.Now() - w.since
		sem.held++
		w.granted()
	}
}
