// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for the calibrated performance model in
// internal/perfsim: it schedules events on a virtual clock, models contended
// resources with processor sharing (CPUs, network links), and provides FCFS
// lock primitives used to model database table locking.
//
// All times are float64 seconds of virtual time. A Sim is single-threaded
// and deterministic: events fire in (time, scheduling order). Scheduled
// callbacks wait as values in one binary min-heap that only pushes and pops.
// A processor-sharing resource keeps its one pending completion beside that
// heap, restamped with a new time and the next place in scheduling order
// when a job arrives; each step fires the earlier of the heap's head and
// the armed completions.
package sim

import (
	"fmt"
	"math"
)

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now    float64
	events queue         // scheduled callbacks, ordered by (at, seq)
	ps     []*PSResource // every resource, each with at most one completion armed
	seq    int64
	steps  int64
}

// event is one pending callback, fired in (at, seq) order.
type event struct {
	at  float64
	seq int64
	fn  func()
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

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
	at, seq := s.stamp(delay)
	s.events.push(event{at: at, seq: seq, fn: fn})
}

// stamp returns the time delay seconds from now and the next sequence
// number, which orders an event after every one stamped before it for the
// same time.
func (s *Sim) stamp(delay float64) (float64, int64) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	s.seq++
	return s.now + delay, s.seq
}

// step executes the next pending event if it is due by until. It returns
// false when none is.
func (s *Sim) step(until float64) bool {
	var head *event
	if len(s.events) > 0 {
		head = &s.events[0]
	}
	var from *PSResource
	for _, r := range s.ps {
		if r.armed && (head == nil || r.next.before(head)) {
			head, from = &r.next, r
		}
	}
	if head == nil || head.at > until {
		return false
	}
	ev := *head
	if from != nil {
		from.armed = false
	} else {
		s.events.pop()
	}
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
	for s.step(math.Inf(1)) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled for later remain pending.
func (s *Sim) RunUntil(t float64) {
	for s.step(t) {
	}
	if t > s.now {
		s.now = t
	}
}

// queue is a binary min-heap of events with container/heap's sift rules, so
// events with equal keys leave in the same order as there. A processor-
// sharing resource keeps its jobs in one with seq 0, ordered by at alone.
type queue []event

func (q *queue) push(e event) {
	*q = append(*q, e)
	h := *q
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !e.before(&h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
}

func (q *queue) pop() event {
	h := *q
	n := len(h) - 1
	top, e := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(&h[j]) {
			j = j2 // right child
		}
		if !h[j].before(&e) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = e
	h[n] = event{}
	*q = h[:n]
	return top
}
