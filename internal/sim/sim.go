// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for the calibrated performance model in
// internal/perfsim: it schedules events on a virtual clock, models contended
// resources with processor sharing (CPUs, network links), and provides FCFS
// lock primitives used to model database table locking.
//
// All times are float64 seconds of virtual time. A Sim is single-threaded
// and deterministic: events at equal times fire in scheduling order.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now    float64
	events eventHeap
	seq    int64
	steps  int64
}

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() int64 { return s.steps }

// Timer is a handle to a scheduled event. It can be cancelled before firing.
type Timer struct {
	at        float64
	seq       int64
	fn        func()
	cancelled bool
	index     int // heap index, -1 once popped
}

// Cancel prevents the timer from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t *Timer) Cancel() {
	if t != nil {
		t.cancelled = true
		t.fn = nil
	}
}

// Schedule arranges for fn to run after delay seconds of virtual time.
// A negative delay is treated as zero. It returns a Timer handle that can
// cancel the event.
func (s *Sim) Schedule(delay float64, fn func()) *Timer {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time t. Times in the
// past are clamped to the current time.
func (s *Sim) ScheduleAt(t float64, fn func()) *Timer {
	if fn == nil {
		panic("sim: ScheduleAt with nil fn")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	ev := &Timer{at: t, seq: s.seq, fn: fn}
	heap.Push(&s.events, ev)
	return ev
}

// Step executes the next pending event. It returns false when no events
// remain.
func (s *Sim) Step() bool {
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(*Timer)
		if ev.cancelled {
			continue
		}
		if ev.at < s.now {
			panic(fmt.Sprintf("sim: time went backwards: %g < %g", ev.at, s.now))
		}
		s.now = ev.at
		s.steps++
		fn := ev.fn
		ev.fn = nil
		fn()
		return true
	}
	return false
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled for later remain pending.
func (s *Sim) RunUntil(t float64) {
	for {
		ev := s.events.peek()
		if ev == nil || ev.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// eventHeap is a min-heap ordered by (time, sequence) so that simultaneous
// events fire in the order they were scheduled.
type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Timer)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

func (h *eventHeap) peek() *Timer {
	for h.Len() > 0 {
		if !(*h)[0].cancelled {
			return (*h)[0]
		}
		// Lazily drop cancelled head entries so peek stays O(1) amortized.
		heap.Pop(h)
	}
	return nil
}
