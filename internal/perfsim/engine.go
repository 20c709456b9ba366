package perfsim

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// The testbed's switched 100 Mb/s Ethernet: each NIC link moves
// linkBandwidth bytes/second, and a transfer crosses the switch in
// linkLatency seconds.
const (
	linkBandwidth = 12.5e6
	linkLatency   = 100e-6
)

// machine is one single-CPU host of the paper's testbed: a processor-sharing
// CPU whose demands are seconds on the paper's 1.33 GHz Athlon, and a
// full-duplex NIC whose transmit and receive links are separate resources.
// That is how a switched LAN behaves: flows to different hosts do not
// contend with each other, only flows sharing an endpoint do.
type machine struct {
	cpu, tx, rx *sim.PSResource
	cpu0, tx0   float64 // busy times at the window's start
}

func newMachine(s *sim.Sim) *machine {
	return &machine{
		cpu: sim.NewPSResource(s, 1),
		tx:  sim.NewPSResource(s, linkBandwidth),
		rx:  sim.NewPSResource(s, linkBandwidth),
	}
}

// mark opens the measurement window.
func (m *machine) mark() {
	m.cpu0, m.tx0 = m.cpu.BusyTime(), m.tx.BusyTime()
}

// txRate is the bytes/second transmitted over the dt seconds since the window
// opened: the work a PS link does while busy is exactly the bytes it moves.
func (m *machine) txRate(dt float64) float64 {
	return (m.tx.BusyTime() - m.tx0) * linkBandwidth / dt
}

// lockRef is one table in a LOCK TABLES statement with its intent, e.g.
// "LOCK TABLES items WRITE, carts READ".
type lockRef struct {
	table int
	write bool
}

// stageKind is what one stage of an interaction does with the kernel.
type stageKind uint8

const (
	stUse      stageKind = iota // amount of work on res (a CPU or a NIC link)
	stWait                      // amount seconds on no resource
	stQuery                     // amount seconds of database CPU on res, inflated when it starts
	stQueryEnd                  // the query before it is over
	stLock                      // acquire lk, for writing if write
	stUnlock                    // release it
	stConn                      // check a connection out of the engine's pool
	stFree                      // return it
)

// stage is one step of an interaction's compiled pipeline: one kernel call.
type stage struct {
	kind   stageKind
	write  bool
	amount float64
	res    *sim.PSResource
	lk     *sim.RWLock
}

// pipeline is the stage list of one class on one configuration.
type pipeline []stage

func (p *pipeline) add(st stage) { *p = append(*p, st) }

func (p *pipeline) use(res *sim.PSResource, amount float64) {
	p.add(stage{kind: stUse, res: res, amount: amount})
}

func (p *pipeline) wait(d float64) { p.add(stage{kind: stWait, amount: d}) }

// send moves size bytes from machine a to machine b through the switch: the
// bytes occupy a's transmit link, cross the wire, then occupy b's receive
// link. Every send crosses machines: same-machine IPC is accounted as CPU
// time instead.
func (p *pipeline) send(a, b *machine, size float64) {
	p.use(a.tx, size)
	p.wait(linkLatency)
	p.use(b.rx, size)
}

// locks takes (stLock) or releases (stUnlock) the refs' locks in their
// sorted order, MySQL's deadlock-avoidance discipline.
func (p *pipeline) locks(kind stageKind, locks []*sim.RWLock, refs []lockRef) {
	for _, ref := range refs {
		p.add(stage{kind: kind, lk: locks[ref.table], write: ref.write})
	}
}

// run is one simulated experiment: a benchmark mix on one architecture at a
// fixed client count.
type run struct {
	s     *sim.Sim
	spec  *workloadSpec
	arch  Arch
	costs *Costs

	hosts map[Tier]*machine // the configuration's machines
	web   *machine          // always present
	app   *machine          // dedicated generator machine (nil if co-located)
	ejb   *machine          // EJB server (ArchEJB only)
	db    *machine

	dbLocks  []*sim.RWLock  // database table locks
	engLocks []*sim.RWLock  // engine-side locks for the (sync) variants
	dbPool   *sim.Semaphore // engine-side database connection pool
	weights  []float64
	pipes    [][]stage // each class's pipeline, compiled once

	// activeQueries counts queries executing on the DB CPU; each
	// concurrent query inflates demand by Costs.DBConcOverhead.
	activeQueries int

	// measurement window state
	winStart  float64
	winEnd    float64
	completed int64
	respSum   float64
	lockWait0 float64
}

// newRun wires up machines, locks and workload weights for one experiment
// and compiles every class's pipeline.
func newRun(b Benchmark, m Mix, a Arch, opt Options) *run {
	spec := specFor(b)
	weights, ok := spec.mixes[m]
	if !ok {
		panic(fmt.Sprintf("perfsim: mix %v not defined for benchmark %v", m, b))
	}
	s := sim.New()
	r := &run{s: s, spec: spec, arch: a, costs: opt.Costs, weights: weights}
	r.hosts = map[Tier]*machine{TierWeb: newMachine(s)}
	if a.DedicatedEngine() {
		r.hosts[TierServlet] = newMachine(s)
	}
	if a == ArchEJB {
		r.hosts[TierEJB] = newMachine(s)
	}
	r.hosts[TierDB] = newMachine(s)
	r.web, r.app, r.ejb, r.db = r.hosts[TierWeb], r.hosts[TierServlet], r.hosts[TierEJB], r.hosts[TierDB]
	for range spec.tables {
		// MyISAM gives pending write locks priority over pending reads; the
		// engine-side lock manager of the (sync) variants is a fair queue.
		r.dbLocks = append(r.dbLocks, sim.NewWriterPriorityRWLock(s))
		r.engLocks = append(r.engLocks, sim.NewRWLock(s))
	}
	r.dbPool = sim.NewSemaphore(s, opt.Costs.DBPoolSize)
	intents := lockIntents(spec)
	for i := range spec.classes {
		c := &spec.classes[i]
		r.pipes = append(r.pipes, r.compile(c, intents[c.name]))
	}
	return r
}

// lockIntents derives the LOCK TABLES intents for each class: WRITE for
// tables the class updates, READ for tables it only consults (MyISAM
// requires every referenced table to appear in the LOCK TABLES list).
func lockIntents(spec *workloadSpec) map[string][]lockRef {
	out := make(map[string][]lockRef, len(spec.classes))
	for _, c := range spec.classes {
		if len(c.lockTables) == 0 {
			continue
		}
		writes := make(map[int]bool)
		for _, st := range c.steps {
			if st.write {
				writes[st.table] = true
			}
		}
		refs := make([]lockRef, 0, len(c.lockTables))
		for _, t := range c.lockTables {
			refs = append(refs, lockRef{table: t, write: writes[t]})
		}
		// MySQL sorts the lock list to avoid deadlock; so do we.
		sort.Slice(refs, func(i, j int) bool { return refs[i].table < refs[j].table })
		out[c.name] = refs
	}
	return out
}

// Run executes one experiment and returns its Result.
func Run(b Benchmark, m Mix, a Arch, clients int, opt Options) Result {
	res, _ := simulate(b, m, a, clients, opt)
	return res
}

// simulate is Run that also returns how many events the kernel executed.
func simulate(b Benchmark, m Mix, a Arch, clients int, opt Options) (Result, int64) {
	opt = opt.withDefaults()
	r := newRun(b, m, a, opt)
	// Past saturation, response times grow with the client count and the
	// system needs correspondingly longer to reach steady state; scale the
	// warm-up with the expected in-system time (~N/throughput).
	rough := 9.0 // bookstore interactions/s near saturation
	if b == Auction {
		rough = 140
	}
	ramp := opt.RampUp
	if adaptive := 4 * float64(clients) / rough; adaptive > ramp {
		ramp = adaptive
	}
	r.winStart = ramp
	r.winEnd = ramp + opt.Measure

	for i := 0; i < clients; i++ {
		c := &client{r: r, g: sim.NewRNG(sim.Seed(opt.Seed, i))}
		c.resume, c.think = c.next, c.begin
		r.s.Schedule(c.g.TruncExp(thinkTime, 10*thinkTime), c.think)
	}
	r.s.Schedule(r.winStart, func() {
		for _, h := range r.hosts {
			h.mark()
		}
		r.lockWait0 = r.totalLockWait()
	})
	r.s.RunUntil(r.winEnd)

	res := Result{
		Benchmark: b, Mix: m, Arch: a, Clients: clients,
		Completed:     r.completed,
		ThroughputIPM: float64(r.completed) / opt.Measure * 60,
		CPU:           make(map[Tier]float64),
	}
	if r.completed > 0 {
		res.MeanResponse = r.respSum / float64(r.completed)
	}
	for tier, h := range r.hosts {
		res.CPU[tier] = 100 * h.cpu.UtilizationSince(h.cpu0, r.winStart)
	}
	res.WebNICMbps = r.web.txRate(r.s.Now()-r.winStart) * 8 / 1e6
	if clients > 0 {
		res.DBLockWaitFrac = (r.totalLockWait() - r.lockWait0) /
			(float64(clients) * opt.Measure)
	}
	return res, r.s.Steps()
}

func (r *run) totalLockWait() float64 {
	var sum float64
	for _, l := range r.dbLocks {
		sum += l.TotalWait()
	}
	return sum
}

// thinkTime is the emulated clients' mean think time in seconds (TPC-W
// clause 5.3.1.1).
const thinkTime = 7.0

// client is one emulated browser: it thinks, picks an interaction class and
// walks that class's pipeline, one stage per kernel call.
type client struct {
	r      *run
	g      *sim.RNG
	stages []stage // the interaction under way
	pc     int     // its next stage
	start  float64 // when it began
	resume func()  // c.next, bound once: every stage that waits ends here
	think  func()  // c.begin, bound once: the think timer's callback
}

// begin starts the client's next interaction.
func (c *client) begin() {
	r := c.r
	c.stages, c.pc, c.start = r.pipes[c.g.Pick(r.weights)], 0, r.s.Now()
	c.next()
}

// next resumes the interaction. Once its last stage is done the interaction
// counts if it ended inside the window, and the client thinks again (TPC-W:
// negative-exponential think time, truncated at 10x the mean).
func (c *client) next() {
	if c.walk() {
		return
	}
	r := c.r
	if end := r.s.Now(); end >= r.winStart && end < r.winEnd {
		r.completed++
		r.respSum += end - c.start
	}
	r.s.Schedule(c.g.TruncExp(thinkTime, 10*thinkTime), c.think)
}

// walk takes stages from c.pc on until one waits, and reports whether one
// does. A waiting stage hands c.resume to the kernel, which calls it at once
// when a lock or pool slot is free: the walk goes on in that call, and this
// one returns.
func (c *client) walk() bool {
	r := c.r
	for c.pc < len(c.stages) {
		st := &c.stages[c.pc]
		c.pc++
		switch st.kind {
		case stUse:
			st.res.Use(st.amount, c.resume)
			return true
		case stWait:
			r.s.Schedule(st.amount, c.resume)
			return true
		case stQuery:
			// The concurrency overhead models MySQL thread thrash under
			// many simultaneous queries.
			eff := st.amount * (1 + r.costs.DBConcOverhead*float64(r.activeQueries))
			r.activeQueries++
			st.res.Use(eff, c.resume)
			return true
		case stQueryEnd:
			r.activeQueries--
		case stLock:
			st.lk.Acquire(st.write, c.resume)
			return true
		case stUnlock:
			st.lk.Release(st.write)
		case stConn:
			r.dbPool.Acquire(c.resume)
			return true
		case stFree:
			r.dbPool.Release()
		}
	}
	return false
}

// compile lowers class c onto the run's configuration: web-server request
// handling, architecture-specific dynamic content generation, and the
// response transmission back to the client. refs are c's LOCK TABLES
// intents.
func (r *run) compile(c *class, refs []lockRef) pipeline {
	co := r.costs
	var p pipeline
	p.use(r.web.cpu, co.WebFixedCPU)
	switch r.arch {
	case ArchPHP:
		p.use(r.web.cpu, c.genCPU*co.PHPGenFactor)
		r.steps(&p, c, refs, r.web, co.PHPDriverPerQuery)
	case ArchServlet, ArchServletSync:
		// The servlet engine is a separate process on the web-server
		// machine: the AJP protocol cost of both sides lands on the same
		// CPU (§6.1: this IPC is why co-located servlets trail PHP).
		ipc := 2*co.AJPFixedCPU + 2*co.AJPPerByte*c.dynBytes
		p.use(r.web.cpu, ipc+c.genCPU)
		r.steps(&p, c, refs, r.web, co.JDBCDriverPerQuery)
	case ArchServletDedicated, ArchServletDedicatedSync:
		p.use(r.web.cpu, co.AJPFixedCPU)
		p.send(r.web, r.app, co.RequestBytes)
		p.use(r.app.cpu, co.AJPFixedCPU+c.genCPU)
		r.steps(&p, c, refs, r.app, co.JDBCDriverPerQuery)
		p.use(r.app.cpu, co.AJPPerByte*c.dynBytes)
		p.send(r.app, r.web, c.dynBytes)
		p.use(r.web.cpu, co.AJPPerByte*c.dynBytes)
	case ArchEJB:
		// The four-tier pipeline: the servlet keeps only the presentation
		// logic and calls a stateless session façade over RMI.
		presCPU := c.genCPU * co.EJBPresentFactor
		logicCPU := c.genCPU * (1 - co.EJBPresentFactor) * co.EJBLogicFactor
		p.use(r.web.cpu, co.AJPFixedCPU)
		p.send(r.web, r.app, co.RequestBytes)
		p.use(r.app.cpu, co.AJPFixedCPU+presCPU+co.RMIFixedCPU)
		p.send(r.app, r.ejb, co.RMIBytes)
		p.use(r.ejb.cpu, co.RMIFixedCPU+logicCPU)
		r.cmpSteps(&p, c)
		p.send(r.ejb, r.app, co.RMIBytes+c.dynBytes)
		p.use(r.app.cpu, co.RMIFixedCPU+co.AJPPerByte*c.dynBytes)
		p.send(r.app, r.web, c.dynBytes)
		p.use(r.web.cpu, co.AJPPerByte*c.dynBytes)
	default:
		panic("perfsim: unknown architecture")
	}
	// Response path: web-server CPU per byte (kernel copies and
	// interrupts) and the client-facing NIC.
	total := c.dynBytes + c.staticBytes
	p.use(r.web.cpu, co.WebCPUPerByte*total)
	p.use(r.web.tx, total)
	return p
}

// steps compiles a class's hand-written query sequence from the engine
// machine, applying the configuration's locking discipline to a class that
// has LOCK TABLES intents:
//
//   - non-sync configurations wrap it in database-side LOCK TABLES ...
//     UNLOCK TABLES (extra statements plus two round trips) on a pinned
//     connection, during which per-query locks on held tables are
//     unnecessary;
//   - (sync) configurations serialize it on engine-side locks instead, and
//     every query takes only its own short implicit table lock at the
//     database.
//
// Without intents every query checks a pooled connection out for its own
// round trip.
func (r *run) steps(p *pipeline, c *class, refs []lockRef, mach *machine, driverCPU float64) {
	co := r.costs
	pinned := len(refs) > 0
	sync := pinned && r.arch.EngineSync()
	switch {
	case sync:
		// Engine-side locking: the Java implementation performs the result
		// processing and the external payment authorization BEFORE
		// entering the synchronized block, so the critical section is just
		// the back-to-back query sequence on one pinned connection. This is
		// precisely why the (sync) configurations let the database reach
		// 100% CPU (§5.1, §5.3).
		var gaps, ext float64
		for i := range c.steps {
			gaps += c.steps[i].gap
			ext += c.steps[i].extDelay
		}
		p.use(mach.cpu, gaps)
		if ext > 0 {
			p.wait(ext)
		}
		p.locks(stLock, r.engLocks, refs)
		p.add(stage{kind: stConn})
	case pinned:
		// LOCK TABLES: pin a connection, one round trip and statement, then
		// the atomic multi-table grant in sorted order (MySQL's
		// discipline).
		p.add(stage{kind: stConn})
		p.send(mach, r.db, co.QueryBytes)
		p.locks(stLock, r.dbLocks, refs)
		r.query(p, co.LockStmtCPU)
		p.send(r.db, mach, 64)
	}
	for i := range c.steps {
		st := &c.steps[i]
		if !sync {
			if st.gap > 0 {
				p.use(mach.cpu, st.gap)
			}
			if st.extDelay > 0 {
				p.wait(st.extDelay)
			}
		}
		if !pinned {
			p.add(stage{kind: stConn})
		}
		p.send(mach, r.db, co.QueryBytes)
		held := pinned && !sync &&
			slices.ContainsFunc(refs, func(ref lockRef) bool { return ref.table == st.table })
		r.dbQuery(p, st, co.DBStmtFixedCPU+st.dbCPU, !held)
		p.send(r.db, mach, co.ResultBytes)
		if !pinned {
			p.add(stage{kind: stFree})
		}
		p.use(mach.cpu, driverCPU)
	}
	switch {
	case sync:
		p.add(stage{kind: stFree})
		p.locks(stUnlock, r.engLocks, refs)
	case pinned:
		// UNLOCK TABLES round trip.
		p.send(mach, r.db, co.QueryBytes)
		r.query(p, co.LockStmtCPU)
		p.locks(stUnlock, r.dbLocks, refs)
		p.send(r.db, mach, 64)
		p.add(stage{kind: stFree})
	}
}

// query runs cpu seconds of database work (inflated as it starts by the
// queries already running).
func (r *run) query(p *pipeline, cpu float64) {
	p.add(stage{kind: stQuery, res: r.db.cpu, amount: cpu})
	p.add(stage{kind: stQueryEnd})
}

// dbQuery executes one statement's CPU demand on the database, bracketed by
// the table's implicit lock unless LOCK TABLES already holds it.
func (r *run) dbQuery(p *pipeline, st *opStep, cpu float64, implicit bool) {
	var own []lockRef
	if implicit {
		own = []lockRef{{st.table, st.write}}
	}
	p.locks(stLock, r.dbLocks, own)
	r.query(p, cpu)
	p.locks(stUnlock, r.dbLocks, own)
}

// cmpSteps is the EJB query plan: the façade's entity beans turn each
// hand-written step into a finder (scaled by the benchmark's
// cmpFinderFactor) plus CMPFanout short bean-state queries, and
// materializing the page costs one short query per row. Short queries skip
// explicit locking — they are single-row primary-key statements whose
// implicit lock hold is their own execution time. They are not batched:
// each is its own pool checkout, round trip, database CPU and EJB CPU, so an
// interaction's event count grows with CMPFanout and rows.
func (r *run) cmpSteps(p *pipeline, c *class) {
	co := r.costs
	short := func(n int) {
		for range n {
			p.add(stage{kind: stConn})
			p.send(r.ejb, r.db, co.CMPQueryBytes)
			r.query(p, r.spec.cmpRowQueryCPU)
			p.send(r.db, r.ejb, co.CMPQueryBytes)
			p.use(r.ejb.cpu, co.CMPQueryCPUEJB)
			p.add(stage{kind: stFree})
		}
	}
	for i := range c.steps {
		st := &c.steps[i]
		if st.gap > 0 {
			p.use(r.ejb.cpu, st.gap)
		}
		// External delays (the payment gateway) apply regardless of
		// middleware; EJB transactions hold no table locks across them.
		if st.extDelay > 0 {
			p.wait(st.extDelay)
		}
		p.add(stage{kind: stConn})
		p.send(r.ejb, r.db, co.QueryBytes)
		r.dbQuery(p, st, co.DBStmtFixedCPU+st.dbCPU*r.spec.cmpFinderFactor, true)
		p.send(r.db, r.ejb, co.ResultBytes)
		p.add(stage{kind: stFree})
		short(co.CMPFanout)
	}
	// Row materialization: one short query per result row.
	short(c.rows)
}
