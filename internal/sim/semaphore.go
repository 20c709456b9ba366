package sim

// Semaphore is a FCFS counting semaphore, used to model bounded resources
// such as database connection pools: the number of queries concurrently
// executing in the database is limited by the connections the engine tier
// holds, which in the real system is what keeps a saturated MySQL from
// time-slicing hundreds of queries at once.
type Semaphore struct {
	sim   *Sim
	name  string
	cap   int
	held  int
	queue []func()

	waitAcc float64
	waitT   []float64 // arrival times of queued waiters (parallel to queue)
}

// NewSemaphore creates a semaphore with the given capacity (>0).
func NewSemaphore(s *Sim, name string, capacity int) *Semaphore {
	if capacity <= 0 {
		panic("sim: Semaphore capacity must be positive")
	}
	return &Semaphore{sim: s, name: name, cap: capacity}
}

// Name returns the semaphore name.
func (sem *Semaphore) Name() string { return sem.name }

// QueueLen returns the number of waiters.
func (sem *Semaphore) QueueLen() int { return len(sem.queue) }

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
	sem.queue = append(sem.queue, granted)
	sem.waitT = append(sem.waitT, sem.sim.Now())
}

// Release frees one slot, granting the oldest waiter if any.
func (sem *Semaphore) Release() {
	if sem.held <= 0 {
		panic("sim: Semaphore.Release without hold")
	}
	sem.held--
	if len(sem.queue) > 0 {
		granted := sem.queue[0]
		sem.queue = sem.queue[1:]
		sem.waitAcc += sem.sim.Now() - sem.waitT[0]
		sem.waitT = sem.waitT[1:]
		sem.held++
		granted()
	}
}
