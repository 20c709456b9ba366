// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for the calibrated performance model in
// internal/perfsim: it schedules events on a virtual clock, models contended
// resources with processor sharing (CPUs, network links), and provides FCFS
// lock primitives used to model database table locking.
//
// All times are float64 seconds of virtual time. A Sim is single-threaded
// and deterministic: events fire in (time, scheduling order). The queue owns
// every pending event and never cancels one: a processor-sharing resource
// keeps one pending completion and moves it in place, to its new time and
// the next place in scheduling order, when a job arrives.
package sim

import (
	"fmt"
	"math"
)

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now    float64
	events heap[*event] // ordered by (at, seq)
	seq    int64
	steps  int64
}

// event is one pending callback; i is its index in the queue, -1 when it is
// not queued.
type event struct {
	at  float64
	seq int64
	fn  func()
	i   int
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

func (e *event) moved(i int) { e.i = i }

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() int64 { return s.steps }

// Schedule arranges for fn to run after delay seconds of virtual time.
// A negative delay is treated as zero.
func (s *Sim) Schedule(delay float64, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	s.arm(&event{fn: fn, i: -1}, delay)
}

// arm sets ev to fire delay seconds from now, after every event scheduled
// before it for the same time: it queues ev, or moves it in place if it is
// already queued.
func (s *Sim) arm(ev *event, delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	s.seq++
	ev.at, ev.seq = s.now+delay, s.seq
	if ev.i < 0 {
		s.events.push(ev)
	} else {
		s.events.fix(ev.i)
	}
}

// Step executes the next pending event. It returns false when no events
// remain.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := s.events.pop()
	if ev.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %g < %g", ev.at, s.now))
	}
	s.now = ev.at
	s.steps++
	ev.fn()
	return true
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled for later remain pending.
func (s *Sim) RunUntil(t float64) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// heap is container/heap's binary min-heap over a typed slice: the same
// sift rules, so items with equal keys leave in the same order, without
// boxing each item in an interface. moved tells an item its new index (or
// -1 once popped).
type heap[T interface {
	before(T) bool
	moved(int)
}] []T

func (h *heap[T]) push(x T) {
	x.moved(len(*h))
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

func (h *heap[T]) pop() T {
	n := len(*h) - 1
	h.swap(0, n)
	h.down(0, n)
	x := (*h)[n]
	var zero T
	(*h)[n] = zero
	*h = (*h)[:n]
	x.moved(-1)
	return x
}

// fix restores the order after the item at i changed its key.
func (h heap[T]) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

func (h heap[T]) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].moved(i)
	h[j].moved(j)
}

func (h heap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h[j].before(h[i]) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h heap[T]) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1 // left child
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(h[j]) {
			j = j2 // right child
		}
		if !h[j].before(h[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
