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
// resource keeps its one completion event itself, armed while a job is in
// service; an arrival restamps it with the smallest target's new time.
type PSResource struct {
	sim   *Sim
	speed float64

	jobs  queue    // jobs in service: at is the virtual-time target, seq 0
	lastT float64  // real time of last state update
	v     float64  // virtual time
	next  event    // the completion of the job with the smallest target
	armed bool     // next is pending
	dones []func() // complete's list of finished jobs, reused

	busy float64 // integral of 1{n>0} dt
}

// NewPSResource creates a processor-sharing resource attached to s.
// speed is the work-unit rate when a single job is in service and must be
// positive.
func NewPSResource(s *Sim, speed float64) *PSResource {
	if speed <= 0 || math.IsNaN(speed) {
		panic("sim: PSResource speed must be positive")
	}
	r := &PSResource{sim: s, speed: speed, lastT: s.Now()}
	r.next.fn = r.complete
	s.ps = append(s.ps, r)
	return r
}

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
	r.jobs.push(event{at: r.v + demand, fn: done})
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

// arm restamps the completion event with when the job with the smallest
// virtual-time target finishes at the current share.
func (r *PSResource) arm() {
	dt := (r.jobs[0].at - r.v) * float64(len(r.jobs)) / r.speed
	r.next.at, r.next.seq = r.sim.stamp(dt)
	r.armed = true
}

func (r *PSResource) complete() {
	r.advance()
	// Pop every job whose target has been reached. Tolerance covers float
	// drift when many equal-demand jobs share the resource.
	const eps = 1e-9
	dones := r.dones[:0]
	for len(r.jobs) > 0 && r.jobs[0].at <= r.v+eps*(1+math.Abs(r.v)) {
		dones = append(dones, r.jobs.pop().fn)
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
