package sim

import (
	"container/heap"
	"math"
)

// PSResource models a processor-sharing resource such as a single CPU or a
// network link. When n jobs are in service, each progresses at speed/n work
// units per second. Demands are expressed in work units (seconds of service
// at full speed for a CPU, bytes for a link whose speed is bytes/second).
//
// The implementation uses the classic virtual-time formulation: virtual time
// V advances at rate speed/n, each job completes when V reaches its arrival
// value plus its demand, so arrivals and completions cost O(log n).
type PSResource struct {
	sim   *Sim
	name  string
	speed float64

	jobs    jobHeap
	lastT   float64 // real time of last state update
	v       float64 // virtual time
	pending *Timer

	busy float64 // integral of 1{n>0} dt
}

// NewPSResource creates a processor-sharing resource attached to s.
// speed is the work-unit rate when a single job is in service and must be
// positive.
func NewPSResource(s *Sim, name string, speed float64) *PSResource {
	if speed <= 0 || math.IsNaN(speed) {
		panic("sim: PSResource speed must be positive")
	}
	return &PSResource{sim: s, name: name, speed: speed, lastT: s.Now()}
}

// Name returns the resource name given at construction.
func (r *PSResource) Name() string { return r.name }

// Speed returns the full-speed service rate.
func (r *PSResource) Speed() float64 { return r.speed }

// Use submits a job with the given demand. done runs (via a scheduled event)
// when the job's service completes. Zero or negative demands complete after
// an infinitesimal delay (next event at the current time).
func (r *PSResource) Use(demand float64, done func()) {
	if done == nil {
		panic("sim: PSResource.Use with nil done")
	}
	r.advance()
	if demand <= 0 || math.IsNaN(demand) {
		r.sim.Schedule(0, done)
		return
	}
	j := &psJob{target: r.v + demand, done: done}
	heap.Push(&r.jobs, j)
	r.reschedule()
}

// advance brings the virtual clock and accounting integrals up to the
// simulator's current time.
func (r *PSResource) advance() {
	now := r.sim.Now()
	dt := now - r.lastT
	if dt > 0 {
		if n := r.jobs.Len(); n > 0 {
			r.v += dt * r.speed / float64(n)
			r.busy += dt
		}
		r.lastT = now
	} else {
		r.lastT = now
	}
}

// reschedule (re)arms the completion event for the job with the smallest
// virtual-time target.
func (r *PSResource) reschedule() {
	if r.pending != nil {
		r.pending.Cancel()
		r.pending = nil
	}
	if r.jobs.Len() == 0 {
		return
	}
	minTarget := r.jobs[0].target
	n := float64(r.jobs.Len())
	dt := (minTarget - r.v) * n / r.speed
	if dt < 0 {
		dt = 0
	}
	r.pending = r.sim.Schedule(dt, r.complete)
}

func (r *PSResource) complete() {
	r.pending = nil
	r.advance()
	// Pop every job whose target has been reached. Tolerance covers float
	// drift when many equal-demand jobs share the resource.
	const eps = 1e-9
	var dones []func()
	for r.jobs.Len() > 0 && r.jobs[0].target <= r.v+eps*(1+math.Abs(r.v)) {
		j := heap.Pop(&r.jobs).(*psJob)
		dones = append(dones, j.done)
	}
	r.reschedule()
	for _, d := range dones {
		d()
	}
}

// BusyTime returns the accumulated time during which at least one job was in
// service, up to the current simulation time.
func (r *PSResource) BusyTime() float64 {
	r.advance()
	return r.busy
}

// UtilizationSince returns the fraction of time the resource was busy over
// the window starting at a prior BusyTime snapshot busy0 taken at time t0.
func (r *PSResource) UtilizationSince(busy0, t0 float64) float64 {
	dt := r.sim.Now() - t0
	if dt <= 0 {
		return 0
	}
	u := (r.BusyTime() - busy0) / dt
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

type psJob struct {
	target float64 // virtual time at which service completes
	done   func()
	index  int
}

type jobHeap []*psJob

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return h[i].target < h[j].target }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *jobHeap) Push(x any)        { j := x.(*psJob); j.index = len(*h); *h = append(*h, j) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	j.index = -1
	return j
}
