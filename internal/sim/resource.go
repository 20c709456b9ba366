package sim

import "math"

// PSResource models a processor-sharing resource such as a single CPU or a
// network link. When n jobs are in service, each progresses at speed/n work
// units per second. Demands are expressed in work units (seconds of service
// at full speed for a CPU, bytes for a link whose speed is bytes/second).
//
// The implementation uses the classic virtual-time formulation: virtual time
// V advances at rate speed/n, each job completes when V reaches its arrival
// value plus its demand, so arrivals and completions cost O(log n). The
// resource keeps one completion event, queued while a job is in service;
// an arrival moves it in place to the smallest target's new time.
type PSResource struct {
	sim   *Sim
	name  string
	speed float64

	jobs  heap[psJob]
	lastT float64  // real time of last state update
	v     float64  // virtual time
	next  event    // the completion of the job with the smallest target
	dones []func() // complete's list of finished jobs, reused

	busy float64 // integral of 1{n>0} dt
}

// NewPSResource creates a processor-sharing resource attached to s.
// speed is the work-unit rate when a single job is in service and must be
// positive.
func NewPSResource(s *Sim, name string, speed float64) *PSResource {
	if speed <= 0 || math.IsNaN(speed) {
		panic("sim: PSResource speed must be positive")
	}
	r := &PSResource{sim: s, name: name, speed: speed, lastT: s.Now()}
	r.next = event{fn: r.complete, i: -1}
	return r
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
	r.jobs.push(psJob{target: r.v + demand, done: done})
	r.arm()
}

// advance brings the virtual clock and accounting integrals up to the
// simulator's current time.
func (r *PSResource) advance() {
	now := r.sim.Now()
	if dt := now - r.lastT; dt > 0 && len(r.jobs) > 0 {
		r.v += dt * r.speed / float64(len(r.jobs))
		r.busy += dt
	}
	r.lastT = now
}

// arm moves the completion event to when the job with the smallest
// virtual-time target finishes at the current share.
func (r *PSResource) arm() {
	dt := (r.jobs[0].target - r.v) * float64(len(r.jobs)) / r.speed
	r.sim.arm(&r.next, dt)
}

func (r *PSResource) complete() {
	r.advance()
	// Pop every job whose target has been reached. Tolerance covers float
	// drift when many equal-demand jobs share the resource.
	const eps = 1e-9
	dones := r.dones[:0]
	for len(r.jobs) > 0 && r.jobs[0].target <= r.v+eps*(1+math.Abs(r.v)) {
		dones = append(dones, r.jobs.pop().done)
	}
	if len(r.jobs) > 0 {
		r.arm()
	}
	for _, d := range dones {
		d()
	}
	clear(dones)
	r.dones = dones
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
}

func (j psJob) before(o psJob) bool { return j.target < o.target }

func (psJob) moved(int) {}
