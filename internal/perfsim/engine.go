package perfsim

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/sim/cluster"
)

// lockRef is one table in a LOCK TABLES statement with its intent, e.g.
// "LOCK TABLES items WRITE, carts READ".
type lockRef struct {
	table int
	write bool
}

// run is one simulated experiment: a benchmark mix on one architecture at a
// fixed client count.
type run struct {
	s     *sim.Sim
	cl    *cluster.Cluster
	spec  *workloadSpec
	arch  Arch
	costs *Costs

	web *cluster.Machine // always present
	app *cluster.Machine // dedicated generator machine (nil if co-located)
	ejb *cluster.Machine // EJB server (ArchEJB only)
	db  *cluster.Machine

	dbLocks  []*sim.RWLock  // database table locks
	engLocks []*sim.RWLock  // engine-side locks for the (sync) variants
	dbPool   *sim.Semaphore // engine-side database connection pool
	weights  []float64
	locksFor map[string][]lockRef

	// activeQueries counts queries executing on the DB CPU; each
	// concurrent query inflates demand by Costs.DBConcOverhead.
	activeQueries int

	// measurement window state
	winStart  float64
	winEnd    float64
	completed int64
	respSum   float64
	mark      *cluster.Mark
	lockWait0 float64
}

// newRun wires up machines, locks and workload weights for one experiment.
func newRun(b Benchmark, m Mix, a Arch, opt Options) *run {
	spec := specFor(b)
	weights, ok := spec.mixes[m]
	if !ok {
		panic(fmt.Sprintf("perfsim: mix %v not defined for benchmark %v", m, b))
	}
	s := sim.New()
	cl := cluster.New(s, cluster.DefaultConfig())
	r := &run{
		s: s, cl: cl, spec: spec, arch: a, costs: opt.Costs, weights: weights,
	}
	r.web = cl.AddMachine("web")
	if a.DedicatedEngine() {
		r.app = cl.AddMachine("servlet")
	}
	if a == ArchEJB {
		r.ejb = cl.AddMachine("ejb")
	}
	r.db = cl.AddMachine("db")
	for range spec.tables {
		// MyISAM gives pending write locks priority over pending reads; the
		// engine-side lock manager of the (sync) variants is a fair queue.
		r.dbLocks = append(r.dbLocks, sim.NewWriterPriorityRWLock(s))
		r.engLocks = append(r.engLocks, sim.NewRWLock(s))
	}
	r.locksFor = lockIntents(spec)
	r.dbPool = sim.NewSemaphore(s, opt.Costs.DBPoolSize)
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
		g := sim.NewRNG(sim.Seed(opt.Seed, i))
		r.scheduleThink(g)
	}
	r.s.Schedule(r.winStart, func() {
		r.mark = r.cl.MarkNow()
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
	res.CPU[TierWeb] = 100 * r.cl.CPUUtilization(r.mark, r.web)
	res.CPU[TierDB] = 100 * r.cl.CPUUtilization(r.mark, r.db)
	if r.app != nil {
		res.CPU[TierServlet] = 100 * r.cl.CPUUtilization(r.mark, r.app)
	}
	if r.ejb != nil {
		res.CPU[TierEJB] = 100 * r.cl.CPUUtilization(r.mark, r.ejb)
	}
	res.WebNICMbps = r.cl.NICThroughput(r.mark, r.web) * 8 / 1e6
	if clients > 0 && opt.Measure > 0 {
		res.DBLockWaitFrac = (r.totalLockWait() - r.lockWait0) /
			(float64(clients) * opt.Measure)
	}
	return res
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

// scheduleThink puts a client into its think state and then starts the next
// interaction (TPC-W: negative-exponential think time, truncated at 10x the
// mean).
func (r *run) scheduleThink(g *sim.RNG) {
	r.s.Schedule(g.TruncExp(thinkTime, 10*thinkTime), func() {
		r.startInteraction(g)
	})
}

func (r *run) startInteraction(g *sim.RNG) {
	c := &r.spec.classes[g.Pick(r.weights)]
	start := r.s.Now()
	r.execInteraction(g, c, func() {
		end := r.s.Now()
		if end >= r.winStart && end < r.winEnd {
			r.completed++
			r.respSum += end - start
		}
		r.scheduleThink(g)
	})
}

// execInteraction runs the full interaction pipeline: web-server request
// handling, architecture-specific dynamic content generation, and the
// response transmission back to the client.
func (r *run) execInteraction(g *sim.RNG, c *class, done func()) {
	co := r.costs
	finish := func() {
		// Response path: web-server CPU per byte (kernel copies and
		// interrupts) and the client-facing NIC.
		total := c.dynBytes + c.staticBytes
		r.web.CPU.Use(co.WebCPUPerByte*total, func() {
			r.web.TX.Use(total, done)
		})
	}
	r.web.CPU.Use(co.WebFixedCPU, func() {
		switch r.arch {
		case ArchPHP:
			r.web.CPU.Use(c.genCPU*co.PHPGenFactor, func() {
				r.execSteps(c, r.web, co.PHPDriverPerQuery, finish)
			})
		case ArchServlet, ArchServletSync:
			// The servlet engine is a separate process on the web-server
			// machine: the AJP protocol cost of both sides lands on the
			// same CPU (§6.1: this IPC is why co-located servlets trail
			// PHP).
			ipc := 2*co.AJPFixedCPU + 2*co.AJPPerByte*c.dynBytes
			r.web.CPU.Use(ipc+c.genCPU, func() {
				r.execSteps(c, r.web, co.JDBCDriverPerQuery, finish)
			})
		case ArchServletDedicated, ArchServletDedicatedSync:
			r.web.CPU.Use(co.AJPFixedCPU, func() {
				r.cl.Send(r.web, r.app, co.RequestBytes, func() {
					r.app.CPU.Use(co.AJPFixedCPU+c.genCPU, func() {
						r.execSteps(c, r.app, co.JDBCDriverPerQuery, func() {
							r.app.CPU.Use(co.AJPPerByte*c.dynBytes, func() {
								r.cl.Send(r.app, r.web, c.dynBytes, func() {
									r.web.CPU.Use(co.AJPPerByte*c.dynBytes, finish)
								})
							})
						})
					})
				})
			})
		case ArchEJB:
			r.execEJB(c, finish)
		default:
			panic("perfsim: unknown architecture")
		}
	})
}

// execEJB models the four-tier pipeline: the servlet keeps only the
// presentation logic and calls a stateless session façade over RMI; the
// façade's entity beans turn each hand-written query into finder plus
// per-row state queries (container-managed persistence).
func (r *run) execEJB(c *class, finish func()) {
	co := r.costs
	presCPU := c.genCPU * co.EJBPresentFactor
	logicCPU := c.genCPU * (1 - co.EJBPresentFactor) * co.EJBLogicFactor
	r.web.CPU.Use(co.AJPFixedCPU, func() {
		r.cl.Send(r.web, r.app, co.RequestBytes, func() {
			r.app.CPU.Use(co.AJPFixedCPU+presCPU+co.RMIFixedCPU, func() {
				r.cl.Send(r.app, r.ejb, co.RMIBytes, func() {
					r.ejb.CPU.Use(co.RMIFixedCPU+logicCPU, func() {
						r.execCMPSteps(c, func() {
							r.cl.Send(r.ejb, r.app, co.RMIBytes+c.dynBytes, func() {
								r.app.CPU.Use(co.RMIFixedCPU+co.AJPPerByte*c.dynBytes, func() {
									r.cl.Send(r.app, r.web, c.dynBytes, func() {
										r.web.CPU.Use(co.AJPPerByte*c.dynBytes, finish)
									})
								})
							})
						})
					})
				})
			})
		})
	})
}

// execSteps runs a class's hand-written query sequence from the engine
// machine, applying the configuration's locking discipline:
//
//   - non-sync configurations wrap lock-taking classes in database-side
//     LOCK TABLES ... UNLOCK TABLES (extra statements plus two round trips),
//     during which per-query locks on held tables are unnecessary;
//   - (sync) configurations serialize the same classes on engine-side locks
//     instead, and every query takes only its own short implicit table lock
//     at the database.
func (r *run) execSteps(c *class, mach *cluster.Machine, driverCPU float64, done func()) {
	refs := r.locksFor[c.name]
	if len(refs) == 0 {
		r.runQueries(c, mach, driverCPU, nil, 0, done)
		return
	}
	if r.arch.EngineSync() {
		// Engine-side locking: the Java implementation performs the
		// result processing and the external payment authorization BEFORE
		// entering the synchronized block, so the critical section is just
		// the back-to-back query sequence on one pinned connection. This
		// is precisely why the (sync) configurations let the database
		// reach 100% CPU (§5.1, §5.3).
		var gaps, ext float64
		for i := range c.steps {
			gaps += c.steps[i].gap
			ext += c.steps[i].extDelay
		}
		enter := func() {
			r.acquireAll(r.engLocks, refs, 0, func() {
				r.dbPool.Acquire(func() {
					r.runQueries(c, mach, driverCPU, nil, connHeld|skipStalls, func() {
						r.dbPool.Release()
						r.releaseAll(r.engLocks, refs)
						done()
					})
				})
			})
		}
		mach.CPU.Use(gaps, func() {
			if ext > 0 {
				r.s.Schedule(ext, enter)
			} else {
				enter()
			}
		})
		return
	}
	// LOCK TABLES: pin a connection, one round trip and statement, then the
	// atomic multi-table grant in sorted order (MySQL's discipline).
	co := r.costs
	held := make(map[int]bool, len(refs))
	for _, ref := range refs {
		held[ref.table] = true
	}
	r.dbPool.Acquire(func() {
		r.cl.Send(mach, r.db, co.QueryBytes, func() {
			r.acquireAll(r.dbLocks, refs, 0, func() {
				r.dbCPUUse(co.LockStmtCPU, func() {
					r.cl.Send(r.db, mach, 64, func() {
						r.runQueries(c, mach, driverCPU, held, connHeld, func() {
							// UNLOCK TABLES round trip.
							r.cl.Send(mach, r.db, co.QueryBytes, func() {
								r.dbCPUUse(co.LockStmtCPU, func() {
									r.releaseAll(r.dbLocks, refs)
									r.cl.Send(r.db, mach, 64, func() {
										r.dbPool.Release()
										done()
									})
								})
							})
						})
					})
				})
			})
		})
	})
}

// acquireAll acquires refs[i:] in order (the list is pre-sorted, MySQL's
// deadlock-avoidance discipline) and then calls done.
func (r *run) acquireAll(locks []*sim.RWLock, refs []lockRef, i int, done func()) {
	if i >= len(refs) {
		done()
		return
	}
	locks[refs[i].table].Acquire(refs[i].write, func() {
		r.acquireAll(locks, refs, i+1, done)
	})
}

func (r *run) releaseAll(locks []*sim.RWLock, refs []lockRef) {
	for _, ref := range refs {
		locks[ref.table].Release(ref.write)
	}
}

// queryFlags adjusts runQueries behaviour.
type queryFlags int

const (
	// connHeld: the caller already pinned a pooled connection; otherwise
	// each query checks one out for its own round trip.
	connHeld queryFlags = 1 << iota
	// skipStalls: engine gaps and external delays were paid up front (the
	// sync configurations hoist them out of the critical section).
	skipStalls
)

// runQueries executes the step list sequentially. held marks tables already
// covered by LOCK TABLES (no per-query lock needed); nil means every query
// takes its own short table lock, as MyISAM does implicitly.
func (r *run) runQueries(c *class, mach *cluster.Machine, driverCPU float64, held map[int]bool, flags queryFlags, done func()) {
	co := r.costs
	var step func(i int)
	step = func(i int) {
		if i >= len(c.steps) {
			done()
			return
		}
		st := &c.steps[i]
		next := func() {
			mach.CPU.Use(driverCPU, func() { step(i + 1) })
		}
		exec := func() {
			r.withConn(flags&connHeld != 0, next, func(release func()) {
				r.cl.Send(mach, r.db, co.QueryBytes, func() {
					r.dbQuery(st.table, st.write, co.DBStmtFixedCPU+st.dbCPU, held, func() {
						r.cl.Send(r.db, mach, co.ResultBytes, release)
					})
				})
			})
		}
		if flags&skipStalls != 0 {
			exec()
			return
		}
		afterGap := func() {
			if st.extDelay > 0 {
				r.s.Schedule(st.extDelay, exec)
			} else {
				exec()
			}
		}
		if st.gap > 0 {
			mach.CPU.Use(st.gap, afterGap)
		} else {
			afterGap()
		}
	}
	step(0)
}

// withConn runs body with a database connection: if haveConn, the caller's
// pinned connection is reused and body's release continues straight to next;
// otherwise a pool slot is checked out and returned before next runs.
func (r *run) withConn(haveConn bool, next func(), body func(release func())) {
	if haveConn {
		body(next)
		return
	}
	r.dbPool.Acquire(func() {
		body(func() {
			r.dbPool.Release()
			next()
		})
	})
}

// dbQuery executes one statement's CPU demand on the database, bracketed by
// the table's implicit lock unless the table is already held.
func (r *run) dbQuery(table int, write bool, cpu float64, held map[int]bool, done func()) {
	if held != nil && held[table] {
		r.dbCPUUse(cpu, done)
		return
	}
	l := r.dbLocks[table]
	l.Acquire(write, func() {
		r.dbCPUUse(cpu, func() {
			l.Release(write)
			done()
		})
	})
}

// dbCPUUse runs cpu seconds of database work, inflated by the concurrency
// overhead that models MySQL thread thrash under many simultaneous queries.
func (r *run) dbCPUUse(cpu float64, done func()) {
	eff := cpu * (1 + r.costs.DBConcOverhead*float64(r.activeQueries))
	r.activeQueries++
	r.db.CPU.Use(eff, func() {
		r.activeQueries--
		done()
	})
}

// execCMPSteps is the EJB query plan: each hand-written step becomes a
// finder (scaled by the benchmark's cmpFinderFactor) plus CMPFanout short
// bean-state queries, and materializing the page costs one short query per
// row. Short queries skip explicit locking — they are single-row primary-key
// statements whose implicit lock hold is their own execution time. They are
// not batched: smallQ runs each one as its own pool checkout, round trip,
// database CPU and EJB CPU chain, so an interaction's event count grows with
// CMPFanout and rows.
func (r *run) execCMPSteps(c *class, done func()) {
	co := r.costs
	var step func(i int)
	smallQ := func(n int, after func()) {
		var one func(j int)
		one = func(j int) {
			if j >= n {
				after()
				return
			}
			r.withConn(false, func() { one(j + 1) }, func(release func()) {
				r.cl.Send(r.ejb, r.db, co.CMPQueryBytes, func() {
					r.dbCPUUse(r.spec.cmpRowQueryCPU, func() {
						r.cl.Send(r.db, r.ejb, co.CMPQueryBytes, func() {
							r.ejb.CPU.Use(co.CMPQueryCPUEJB, release)
						})
					})
				})
			})
		}
		one(0)
	}
	step = func(i int) {
		if i >= len(c.steps) {
			// Row materialization: one short query per result row.
			smallQ(c.rows, done)
			return
		}
		st := &c.steps[i]
		run := func() {
			r.withConn(false, func() { smallQ(co.CMPFanout, func() { step(i + 1) }) }, func(release func()) {
				r.cl.Send(r.ejb, r.db, co.QueryBytes, func() {
					cpu := co.DBStmtFixedCPU + st.dbCPU*r.spec.cmpFinderFactor
					r.dbQuery(st.table, st.write, cpu, nil, func() {
						r.cl.Send(r.db, r.ejb, co.ResultBytes, release)
					})
				})
			})
		}
		afterGap := func() {
			// External delays (the payment gateway) apply regardless of
			// middleware; EJB transactions hold no table locks across them.
			if st.extDelay > 0 {
				r.s.Schedule(st.extDelay, run)
			} else {
				run()
			}
		}
		if st.gap > 0 {
			r.ejb.CPU.Use(st.gap, afterGap)
		} else {
			afterGap()
		}
	}
	step(0)
}
