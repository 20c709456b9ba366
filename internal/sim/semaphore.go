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
}

// waiter is a parked request: when it arrived, its place in arrival order
// where a lock keeps two queues, and what runs once it is granted.
type waiter struct {
	since   float64
	seq     int64
	granted func()
}

// waiters is a FIFO of parked requests. pop clears the slot it vacates, so
// the backing array keeps no granted closure reachable, and advances head.
// Once half the slice or more is vacated, the live waiters move down to its
// start: the array is reused, and a pop stays amortised O(1).
type waiters struct {
	q    []waiter
	head int
}

func (w *waiters) len() int { return len(w.q) - w.head }

// front is the oldest waiter; the queue must not be empty.
func (w *waiters) front() *waiter { return &w.q[w.head] }

func (w *waiters) push(x waiter) { w.q = append(w.q, x) }

func (w *waiters) pop() waiter {
	x := w.q[w.head]
	w.q[w.head] = waiter{}
	w.head++
	if 2*w.head >= len(w.q) {
		n := copy(w.q, w.q[w.head:])
		clear(w.q[n:])
		w.q, w.head = w.q[:n], 0
	}
	return x
}

// NewSemaphore creates a semaphore with the given capacity (>0).
func NewSemaphore(s *Sim, capacity int) *Semaphore {
	if capacity <= 0 {
		panic("sim: Semaphore capacity must be positive")
	}
	return &Semaphore{sim: s, cap: capacity}
}

// Acquire requests a slot; granted runs synchronously if one is free,
// otherwise when a predecessor releases.
func (sem *Semaphore) Acquire(granted func()) {
	if granted == nil {
		panic("sim: Semaphore.Acquire with nil granted")
	}
	if sem.held < sem.cap && sem.queue.len() == 0 {
		sem.held++
		granted()
		return
	}
	sem.queue.push(waiter{granted: granted})
}

// Release frees one slot, granting the oldest waiter if any.
func (sem *Semaphore) Release() {
	if sem.held <= 0 {
		panic("sim: Semaphore.Release without hold")
	}
	sem.held--
	if sem.queue.len() > 0 {
		w := sem.queue.pop()
		sem.held++
		w.granted()
	}
}
