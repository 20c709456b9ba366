package perfsim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// walkFrom starts a client walking stages on r at the current time and sets
// *end, -1 until then, when its last stage is done. The client does not
// think afterwards, so r's kernel runs dry once every walk started is over.
func walkFrom(r *run, stages []stage, end *float64) {
	*end = -1
	c := &client{r: r, stages: stages}
	c.resume = func() {
		if !c.walk() {
			*end = r.s.Now()
		}
	}
	c.resume()
}

// sendAlone walks one compiled send from a to b and returns when it is done.
func sendAlone(r *run, a, b *machine, size float64) *float64 {
	var p pipeline
	p.send(a, b, size)
	end := new(float64)
	walkFrom(r, p, end)
	return end
}

func TestSendLatencyAndBandwidth(t *testing.T) {
	r := &run{s: sim.New()}
	a, b := newMachine(r.s), newMachine(r.s)
	end := sendAlone(r, a, b, 500)
	r.s.Run()
	// 500 bytes on a's transmit link, the wire, then b's receive link.
	want := 500/linkBandwidth + linkLatency + 500/linkBandwidth
	if math.Abs(*end-want) > 1e-12 {
		t.Fatalf("delivery at %g, want %g", *end, want)
	}
}

func TestSwitchedFabricNoCrossContention(t *testing.T) {
	// a->b and x->y transfer concurrently at full speed on a switch: a
	// second on each transmit link, the wire, a second on each receive link.
	r := &run{s: sim.New()}
	a, b, x, y := newMachine(r.s), newMachine(r.s), newMachine(r.s), newMachine(r.s)
	t1 := sendAlone(r, a, b, linkBandwidth)
	t2 := sendAlone(r, x, y, linkBandwidth)
	r.s.Run()
	want := 2 + linkLatency
	if math.Abs(*t1-want) > 1e-9 || math.Abs(*t2-want) > 1e-9 {
		t.Fatalf("deliveries at %g,%g, want %g each (no cross contention)", *t1, *t2, want)
	}
}

func TestSharedEndpointContends(t *testing.T) {
	// Two flows out of the same machine share its transmit link.
	r := &run{s: sim.New()}
	a, b, d := newMachine(r.s), newMachine(r.s), newMachine(r.s)
	ends := []*float64{sendAlone(r, a, b, linkBandwidth), sendAlone(r, a, d, linkBandwidth)}
	r.s.Run()
	for _, e := range ends {
		// Each spends 2s on the shared link, then 1s alone on its own.
		if want := 3 + linkLatency; math.Abs(*e-want) > 1e-9 {
			t.Fatalf("delivery at %g, want %g (transmit link shared)", *e, want)
		}
	}
}

func TestCPUUtilizationWindow(t *testing.T) {
	r := &run{s: sim.New()}
	a := newMachine(r.s)
	var end float64
	// Busy 1s of the first 2s window.
	walkFrom(r, pipeline{{kind: stUse, res: a.cpu, amount: 1}}, &end)
	r.s.RunUntil(2)
	a.mark()
	// Busy 0.5s of the next 1s window.
	walkFrom(r, pipeline{{kind: stUse, res: a.cpu, amount: 0.5}}, &end)
	r.s.RunUntil(3)
	if u := a.cpu.UtilizationSince(a.cpu0, 2); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("windowed utilization %g, want 0.5", u)
	}
}

func TestNICThroughput(t *testing.T) {
	r := &run{s: sim.New()}
	a, b := newMachine(r.s), newMachine(r.s)
	a.mark()
	sendAlone(r, a, b, 500)
	r.s.RunUntil(1)
	// 500 bytes moved during a 1s window.
	if got := a.txRate(1); math.Abs(got-500) > 1e-6 {
		t.Fatalf("NIC throughput %g, want 500", got)
	}
}

// TestOneClientTakesItsStages walks every class's compiled pipeline alone,
// on both benchmarks and all six configurations. With nothing to contend
// with, an interaction lasts exactly the sum of its stages' service times: a
// use or a query (one query runs uninflated) takes amount / speed, a wait
// its amount. Afterwards no lock is held or waited for and no query is
// running. A stage the walk skips, takes twice or takes wrong, and a lock
// or query the pipeline opens without closing, shows under the class's
// name; the fingerprint in TestShapeClaims only says that figures moved.
func TestOneClientTakesItsStages(t *testing.T) {
	for _, b := range []Benchmark{Bookstore, Auction} {
		for _, a := range Archs() {
			r := newRun(b, BrowsingMix, a, Options{}.withDefaults())
			for i, stages := range r.pipes {
				name := r.spec.classes[i].name
				var want float64
				for _, st := range stages {
					switch st.kind {
					case stUse, stQuery:
						want += st.amount / st.res.Speed()
					case stWait:
						want += st.amount
					}
				}
				start, end := r.s.Now(), 0.0
				walkFrom(r, stages, &end)
				r.s.Run()
				if got := end - start; math.Abs(got-want) > 1e-9*want {
					t.Errorf("%v/%v %s: took %.12g s, its %d stages sum to %.12g s",
						b, a, name, got, len(stages), want)
				}
				for _, l := range append(r.dbLocks, r.engLocks...) {
					if l.Holders() != 0 || l.QueueLen() != 0 {
						t.Errorf("%v/%v %s: a lock is left with %d holders, %d waiters",
							b, a, name, l.Holders(), l.QueueLen())
					}
				}
				if r.activeQueries != 0 {
					t.Errorf("%v/%v %s: %d queries left running", b, a, name, r.activeQueries)
				}
			}
		}
	}
}

// allocPoints are simulation points that walk every kind of stage: the CMP
// fan-out, engine-side locks, and LOCK TABLES under writer priority.
var allocPoints = []struct {
	b       Benchmark
	m       Mix
	a       Arch
	clients int
}{
	{Auction, BiddingMix, ArchEJB, 400},
	{Bookstore, ShoppingMix, ArchServletSync, 200},
	{Bookstore, OrderingMix, ArchServlet, 200},
}

// TestRunAllocationsFlat checks that a run allocates when it is set up and
// not per event: quadrupling the measurement window adds less than 0.001
// allocations per extra event.
func TestRunAllocationsFlat(t *testing.T) {
	for _, pt := range allocPoints {
		var allocs [2]float64
		var events [2]int64
		for i, measure := range []float64{60, 240} {
			opt := Options{Seed: 1, RampUp: 30, Measure: measure}
			allocs[i] = testing.AllocsPerRun(1, func() {
				_, events[i] = simulate(pt.b, pt.m, pt.a, pt.clients, opt)
			})
		}
		slope := (allocs[1] - allocs[0]) / float64(events[1]-events[0])
		if slope >= 0.001 {
			t.Errorf("%v/%v/%v at %d clients: %.0f then %.0f allocations over %d then %d events, %.5f per extra event",
				pt.b, pt.m, pt.a, pt.clients, allocs[0], allocs[1], events[0], events[1], slope)
		}
	}
}

// BenchmarkRun reports the simulator's cost per executed event on an EJB
// bidding point and a (sync) bookstore point, setup included.
func BenchmarkRun(b *testing.B) {
	for _, pt := range allocPoints[:2] {
		b.Run(fmt.Sprintf("%v/%v", pt.b, pt.a), func(b *testing.B) {
			opt := Options{Seed: 1, RampUp: 30, Measure: 60}
			var events int64
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for range b.N {
				_, n := simulate(pt.b, pt.m, pt.a, pt.clients, opt)
				events += n
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(events), "allocs/event")
		})
	}
}
