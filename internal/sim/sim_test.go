package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(2, func() { got = append(got, 2) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(3, func() { got = append(got, 3) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %g, want 3", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events out of order: %v", got)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, d := range []float64{1, 2, 5} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(3)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %g, want 3", s.Now())
	}
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v, want all three after Run", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.Schedule(0.5, rec)
		}
	}
	s.Schedule(0, rec)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if math.Abs(s.Now()-49.5) > 1e-9 {
		t.Fatalf("clock = %g, want 49.5", s.Now())
	}
}

func TestPSResourceSingleJob(t *testing.T) {
	s := New()
	r := NewPSResource(s, 1.0)
	var doneAt float64
	r.Use(2.5, func() { doneAt = s.Now() })
	s.Run()
	if math.Abs(doneAt-2.5) > 1e-9 {
		t.Fatalf("single job finished at %g, want 2.5", doneAt)
	}
	if got := r.BusyTime(); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("busy time %g, want 2.5", got)
	}
}

func TestPSResourceFairSharing(t *testing.T) {
	// Two equal jobs sharing a unit-speed CPU both finish at 2*demand.
	s := New()
	r := NewPSResource(s, 1.0)
	var ends []float64
	for i := 0; i < 2; i++ {
		r.Use(1.0, func() { ends = append(ends, s.Now()) })
	}
	s.Run()
	if len(ends) != 2 {
		t.Fatalf("want 2 completions, got %d", len(ends))
	}
	for _, e := range ends {
		if math.Abs(e-2.0) > 1e-9 {
			t.Fatalf("completion at %g, want 2.0", e)
		}
	}
}

func TestPSResourceStaggeredJobs(t *testing.T) {
	// Job A (demand 1) alone for 0.5s, then B (demand 0.25) arrives.
	// A: 0.5 work left at t=0.5, then rate 1/2. B finishes at t=1.0
	// (0.25 work at rate 1/2). A then runs alone: 0.25 left, done t=1.25.
	s := New()
	r := NewPSResource(s, 1.0)
	var aEnd, bEnd float64
	r.Use(1.0, func() { aEnd = s.Now() })
	s.Schedule(0.5, func() {
		r.Use(0.25, func() { bEnd = s.Now() })
	})
	s.Run()
	if math.Abs(bEnd-1.0) > 1e-9 {
		t.Fatalf("B finished at %g, want 1.0", bEnd)
	}
	if math.Abs(aEnd-1.25) > 1e-9 {
		t.Fatalf("A finished at %g, want 1.25", aEnd)
	}
}

func TestPSResourceSpeed(t *testing.T) {
	s := New()
	r := NewPSResource(s, 4.0)
	var end float64
	r.Use(2.0, func() { end = s.Now() })
	s.Run()
	if math.Abs(end-0.5) > 1e-9 {
		t.Fatalf("finished at %g, want 0.5", end)
	}
}

func TestPSResourceZeroDemand(t *testing.T) {
	s := New()
	r := NewPSResource(s, 1.0)
	fired := false
	r.Use(0, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("zero-demand job never completed")
	}
}

func TestPSResourceUtilization(t *testing.T) {
	s := New()
	r := NewPSResource(s, 1.0)
	r.Use(1.0, func() {})
	s.Schedule(4, func() {}) // extend the horizon to 4s
	s.Run()
	u := r.UtilizationSince(0, 0)
	if math.Abs(u-0.25) > 1e-9 {
		t.Fatalf("utilization %g, want 0.25", u)
	}
}

// TestPSResourceConservation: with many random jobs, total work served must
// equal total demand, and completions must respect demand ordering given
// simultaneous arrival.
func TestPSResourceConservation(t *testing.T) {
	s := New()
	r := NewPSResource(s, 1.0)
	g := NewRNG(42)
	var total float64
	n := 200
	completed := 0
	for i := 0; i < n; i++ {
		d := 0.01 + g.Float64()
		total += d
		r.Use(d, func() { completed++ })
	}
	s.Run()
	if completed != n {
		t.Fatalf("completed %d, want %d", completed, n)
	}
	// All jobs start together, so makespan equals total work at unit speed.
	if math.Abs(s.Now()-total) > 1e-6*total {
		t.Fatalf("makespan %g, want %g", s.Now(), total)
	}
	if math.Abs(r.BusyTime()-total) > 1e-6*total {
		t.Fatalf("busy %g, want %g", r.BusyTime(), total)
	}
}

// Property: for simultaneously arriving jobs on a PS resource, completion
// order matches demand order.
func TestPSResourceCompletionOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		s := New()
		r := NewPSResource(s, 1.0)
		n := 3 + g.Intn(20)
		demands := make([]float64, n)
		type comp struct {
			idx int
			at  float64
		}
		var comps []comp
		for i := 0; i < n; i++ {
			demands[i] = 0.01 + g.Float64()
			i := i
			r.Use(demands[i], func() { comps = append(comps, comp{i, s.Now()}) })
		}
		s.Run()
		if len(comps) != n {
			return false
		}
		// Completion times must be non-decreasing in demand.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return demands[idx[a]] < demands[idx[b]] })
		at := make(map[int]float64, n)
		for _, c := range comps {
			at[c.idx] = c.at
		}
		prev := -1.0
		for _, i := range idx {
			if at[i] < prev-1e-9 {
				return false
			}
			prev = at[i]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// psReference returns each job's completion time under exact processor
// sharing at the given speed, by brute force: it steps from event to event
// (an arrival or the smallest remaining work running out), taking the
// served work from every active job's remaining work.
func psReference(arrive, demand []float64, speed float64) []float64 {
	order := make([]int, len(arrive))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return arrive[order[a]] < arrive[order[b]] })
	end := make([]float64, len(arrive))
	rem := make(map[int]float64)
	now, next := 0.0, 0
	for next < len(order) || len(rem) > 0 {
		for next < len(order) && arrive[order[next]] <= now {
			i := order[next]
			next++
			if demand[i] <= 0 {
				end[i] = arrive[i]
			} else {
				rem[i] = demand[i]
			}
		}
		if len(rem) == 0 {
			if next < len(order) {
				now = arrive[order[next]]
			}
			continue
		}
		rate := speed / float64(len(rem))
		least := math.Inf(1)
		for _, w := range rem {
			least = math.Min(least, w)
		}
		t, served := now+least/rate, least
		if next < len(order) && arrive[order[next]] < t {
			t = arrive[order[next]]
			served = (t - now) * rate
		}
		now = t
		for i, w := range rem {
			if w -= served; w <= 1e-12*demand[i] {
				end[i] = now
				delete(rem, i)
			} else {
				rem[i] = w
			}
		}
	}
	return end
}

// TestPSResourceOracle checks generated streams against psReference job by
// job, within 1e-9 relative: staggered arrivals (some at equal times),
// demands drawn from a small set (exact ties), at random and zero, and
// random speeds. The streams must reach the re-arm path, an arrival while
// a completion is pending, and simultaneous completions, where one
// completion event pops several jobs.
func TestPSResourceOracle(t *testing.T) {
	rearms, simultaneous := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		g := NewRNG(seed)
		n := 1 + g.Intn(40)
		speed := 0.5 + 3.5*g.Float64()
		arrive, demand := make([]float64, n), make([]float64, n)
		for i := range arrive {
			switch {
			case i > 0 && g.Float64() < 0.3:
				arrive[i] = arrive[i-1]
			default:
				arrive[i] = 2 * g.Float64()
			}
			switch p := g.Float64(); {
			case p < 0.05:
				demand[i] = 0
			case p < 0.5:
				demand[i] = []float64{0.1, 0.25, 0.5}[g.Intn(3)]
			default:
				demand[i] = 0.01 + g.Float64()
			}
		}
		s := New()
		r := NewPSResource(s, speed)
		got := make([]float64, n)
		lastEnd := -1.0
		for i := range arrive {
			s.Schedule(arrive[i], func() {
				if r.armed {
					rearms++
				}
				r.Use(demand[i], func() {
					got[i] = s.Now()
					if demand[i] > 0 {
						if got[i] == lastEnd {
							simultaneous++
						}
						lastEnd = got[i]
					}
				})
			})
		}
		s.Run()
		want := psReference(arrive, demand, speed)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*want[i] {
				t.Fatalf("seed %d speed %g: job %d (arrive %g, demand %g) done at %.17g, reference %.17g",
					seed, speed, i, arrive[i], demand[i], got[i], want[i])
			}
		}
	}
	if rearms == 0 || simultaneous == 0 {
		t.Fatalf("streams reached %d re-arms and %d simultaneous completions; want both", rearms, simultaneous)
	}
	t.Logf("%d re-arms, %d simultaneous completions", rearms, simultaneous)
}

// mva returns the throughput of a closed network of n clients, each
// thinking for a mean z and then visiting every processor-sharing station
// once with mean service time d[k], by exact mean-value analysis (Reiser
// and Lavenberg, JACM 1980).
func mva(n int, z float64, d []float64) float64 {
	q := make([]float64, len(d))
	x := 0.0
	for c := 1; c <= n; c++ {
		rs := make([]float64, len(d))
		total := z
		for k := range d {
			rs[k] = d[k] * (1 + q[k])
			total += rs[k]
		}
		x = float64(c) / total
		for k := range q {
			q[k] = x * rs[k]
		}
	}
	return x
}

// TestMVAOracle drives seeded closed networks through the kernel: 1-4
// processor-sharing stations of random speed, a think delay, 1-60 clients
// and exponential demands. Processor sharing and delay stations are
// insensitive to the service distribution (BCMP), so exact MVA gives the
// throughput X, and each station's utilisation is X·D. Each network warms
// up for as long as MVA says 1 000 cycles take and is measured over
// 400 000 cycles, so a lightly used station's busy time rests on as many
// visits as a busy one's. The simulated values must match within 1 %; the
// worst error on these seeds is 0.68 % (seed 2, a station's utilisation).
func TestMVAOracle(t *testing.T) {
	const bound = 0.01
	worst := 0.0
	for seed := int64(1); seed <= 12; seed++ {
		g := NewRNG(seed)
		s := New()
		rs := make([]*PSResource, 1+g.Intn(4))
		mean, d := make([]float64, len(rs)), make([]float64, len(rs))
		for k := range rs {
			rs[k] = NewPSResource(s, 0.5+3*g.Float64())
			mean[k] = 0.005 + 0.02*g.Float64()
			d[k] = mean[k] / rs[k].Speed()
		}
		n, z := 1+g.Intn(60), 0.05+0.5*g.Float64()
		// A client's step k visits station k; its last step ends the
		// cycle and thinks.
		done := 0
		for c := 0; c < n; c++ {
			steps := make([]func(), len(rs)+1)
			for k, r := range rs {
				steps[k] = func() { r.Use(g.Exp(mean[k]), steps[k+1]) }
			}
			steps[len(rs)] = func() {
				done++
				s.Schedule(g.Exp(z), steps[0])
			}
			s.Schedule(g.Exp(z), steps[0])
		}
		want := mva(n, z, d)
		warm, horizon := 1e3/want, 4e5/want
		s.RunUntil(warm)
		done0, busy0 := done, make([]float64, len(rs))
		for k, r := range rs {
			busy0[k] = r.BusyTime()
		}
		s.RunUntil(warm + horizon)
		x := float64(done-done0) / horizon
		check := func(what string, got, want float64) {
			e := math.Abs(got-want) / want
			worst = math.Max(worst, e)
			if e > bound {
				t.Errorf("seed %d (%d stations, %d clients): %s %.5g, MVA %.5g (%.2f %% off)",
					seed, len(rs), n, what, got, want, 100*e)
			}
		}
		check("throughput", x, want)
		for k, r := range rs {
			check(fmt.Sprintf("station %d utilisation", k), r.UtilizationSince(busy0[k], warm), want*d[k])
		}
	}
	t.Logf("worst relative error %.3f %% (bound %.0f %%)", 100*worst, 100*bound)
}

func TestRWLockSharedReaders(t *testing.T) {
	s := New()
	l := NewRWLock(s)
	held := 0
	for i := 0; i < 3; i++ {
		l.Acquire(false, func() { held++ })
	}
	if held != 3 {
		t.Fatalf("readers held = %d, want 3", held)
	}
	if l.Holders() != 3 {
		t.Fatalf("Holders = %d, want 3", l.Holders())
	}
}

func TestRWLockWriterExcludes(t *testing.T) {
	s := New()
	l := NewRWLock(s)
	var order []string
	l.Acquire(true, func() { order = append(order, "w1") })
	l.Acquire(false, func() { order = append(order, "r1") })
	l.Acquire(true, func() { order = append(order, "w2") })
	if len(order) != 1 || order[0] != "w1" {
		t.Fatalf("order = %v, want [w1]", order)
	}
	l.Release(true)
	if len(order) != 2 || order[1] != "r1" {
		t.Fatalf("order = %v, want [w1 r1]", order)
	}
	l.Release(false)
	if len(order) != 3 || order[2] != "w2" {
		t.Fatalf("order = %v, want [w1 r1 w2]", order)
	}
	l.Release(true)
}

func TestRWLockFCFSBlocksReaderBehindWriter(t *testing.T) {
	s := New()
	l := NewRWLock(s)
	var got []string
	l.Acquire(false, func() { got = append(got, "r1") }) // held
	l.Acquire(true, func() { got = append(got, "w") })   // queued
	l.Acquire(false, func() { got = append(got, "r2") }) // must queue behind w
	if len(got) != 1 {
		t.Fatalf("got %v, want only r1 granted", got)
	}
	l.Release(false)
	if len(got) != 2 || got[1] != "w" {
		t.Fatalf("got %v, want writer next", got)
	}
	l.Release(true)
	if len(got) != 3 || got[2] != "r2" {
		t.Fatalf("got %v, want r2 last", got)
	}
}

// TestWaitersFIFOReusesSlots interleaves pushes and pops at random against a
// plain slice: waiters leave in arrival order across every compaction, and a
// queue that never holds more than 8 keeps one small backing array.
func TestWaitersFIFOReusesSlots(t *testing.T) {
	g := NewRNG(3)
	var q waiters
	var want []int64
	for i := int64(1); i <= 100000; i++ {
		if len(want) < 8 && (len(want) == 0 || g.Intn(2) == 0) {
			q.push(waiter{seq: i})
			want = append(want, i)
			continue
		}
		if got := q.pop().seq; got != want[0] {
			t.Fatalf("op %d: popped %d, want %d", i, got, want[0])
		}
		want = want[1:]
		if q.len() != len(want) {
			t.Fatalf("op %d: len %d, want %d", i, q.len(), len(want))
		}
	}
	if c := cap(q.q); c > 32 {
		t.Fatalf("backing array grew to %d slots for at most 8 waiters", c)
	}
}

// Property: RWLock never grants a writer concurrently with anyone else.
func TestRWLockSafetyProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		s := New()
		l := NewRWLock(s)
		readers, writers := 0, 0
		ok := true
		n := 5 + g.Intn(40)
		for i := 0; i < n; i++ {
			write := g.Float64() < 0.3
			hold := 0.001 + g.Float64()*0.01
			delay := g.Float64() * 0.02
			s.Schedule(delay, func() {
				l.Acquire(write, func() {
					if write {
						writers++
						if writers > 1 || readers > 0 {
							ok = false
						}
					} else {
						readers++
						if writers > 0 {
							ok = false
						}
					}
					s.Schedule(hold, func() {
						if write {
							writers--
						} else {
							readers--
						}
						l.Release(write)
					})
				})
			})
		}
		s.Run()
		return ok && l.Holders() == 0 && l.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(7)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += g.Exp(7.0)
	}
	mean := sum / float64(n)
	if math.Abs(mean-7.0) > 0.1 {
		t.Fatalf("sample mean %g, want ~7.0", mean)
	}
}

func TestRNGPickDistribution(t *testing.T) {
	g := NewRNG(11)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[g.Pick(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Pick[%d] freq %g, want ~%g", i, got, want)
		}
	}
}

func TestRNGTruncExp(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := g.TruncExp(7, 70); v > 70 {
			t.Fatalf("TruncExp produced %g > cap", v)
		}
	}
}

func TestSeedDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := Seed(12345, i)
		if seen[s] {
			t.Fatalf("duplicate child seed at %d", i)
		}
		seen[s] = true
	}
}

// pinRun plays a seeded schedule that mixes equal-time Schedule calls,
// arrivals while a completion is pending (it is restamped), zero-demand
// Use, equal-demand jobs arriving together and apart, and arrivals from
// inside completion callbacks. It returns the clock's bits, the step count
// and an FNV-1a fold of the callback sequence (the id of each completed job
// or fired arrival event, and the clock's bits), and fails t if a job
// completes other than once.
func pinRun(t *testing.T) (nowBits uint64, steps int64, seq uint64) {
	s := New()
	rs := []*PSResource{NewPSResource(s, 1), NewPSResource(s, 2)}
	g := NewRNG(99)
	seq = 14695981039346656037
	fold := func(x uint64) { seq = (seq ^ x) * 1099511628211 }
	var count []int
	var use func(r *PSResource, d float64, then func())
	use = func(r *PSResource, d float64, then func()) {
		id := len(count)
		count = append(count, 0)
		r.Use(d, func() {
			count[id]++
			fold(uint64(id))
			fold(math.Float64bits(s.Now()))
			if then != nil {
				then()
			}
		})
	}
	// A restamped completion takes the next place in scheduling order: on
	// a resource of its own, job 0 alone would end at 1/8; job 1, arriving
	// with it, restamps the completion for 1/4, after the probe scheduled
	// between the two for the same time.
	own := NewPSResource(s, 1)
	use(own, 1.0/8, nil)
	s.Schedule(1.0/4, func() { fold(1 << 33) })
	use(own, 1.0/8, nil)
	// Demands from a small set of binary fractions on a binary time grid:
	// equal demands recur, together and apart in time, and many sums are
	// exact.
	demands := []float64{1.0 / 32, 1.0 / 16, 1.0 / 8}
	for i := 0; i < 300; i++ {
		at := float64(g.Intn(48)) / 16
		kind := g.Intn(5)
		r, other := rs[i%2], rs[1-i%2]
		s.Schedule(at, func() {
			fold(1<<32 + uint64(i))
			fold(math.Float64bits(s.Now()))
			switch kind {
			case 0:
				use(r, 0, nil)
			case 1:
				d := demands[g.Intn(len(demands))]
				use(r, d, nil)
				use(r, d, nil)
			case 2:
				use(r, demands[g.Intn(len(demands))], nil)
			case 3:
				use(r, 0.01+g.Float64()*0.2, func() { use(other, 0.01+g.Float64()*0.1, nil) })
			default:
				use(r, 0.01+g.Float64()*0.2, nil)
			}
		})
	}
	s.Run()
	for id, c := range count {
		if c != 1 {
			t.Fatalf("job %d completed %d times, want once", id, c)
		}
	}
	return math.Float64bits(s.Now()), s.Steps(), seq
}

// TestDeterminism pins the kernel's event order. Events fire in (time,
// scheduling order). A PS resource keeps its one pending completion beside
// the event heap and restamps it with its new time and the next sequence
// number on every arrival, and each step fires the earlier of the heap's
// head and the armed completions. So the schedule in pinRun must end at
// the clock, step count and callback sequence recorded from the kernel
// that cancelled the superseded completion and pushed a fresh one, as the
// kernel that moved it in place within the heap did too. A superseded
// completion that fired would add steps and reorder callbacks.
func TestDeterminism(t *testing.T) {
	const (
		wantNow   = uint64(0x402e2d3d6b7db336) // 15.088359221548313
		wantSteps = int64(644)
		wantSeq   = uint64(0x445fb98a38449b69)
	)
	now, steps, seq := pinRun(t)
	if now != wantNow || steps != wantSteps || seq != wantSeq {
		t.Fatalf("pinned schedule: now %#x (%g), steps %d, sequence %#x; want now %#x, steps %d, sequence %#x",
			now, math.Float64frombits(now), steps, seq, wantNow, wantSteps, wantSeq)
	}
	if now2, steps2, seq2 := pinRun(t); now2 != now || steps2 != steps || seq2 != seq {
		t.Fatal("pinned schedule differs between two runs")
	}
}

// BenchmarkKernel runs a processor-sharing-heavy closed loop: 64 clients
// alternate an exponential think time with a job on one of four saturated
// PS resources, so most events are arrivals that restamp a pending
// completion or completions that pop a job. It reports the kernel's cost
// per executed event.
func BenchmarkKernel(b *testing.B) {
	var events int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s := New()
		rs := make([]*PSResource, 4)
		for i := range rs {
			rs[i] = NewPSResource(s, 1)
		}
		g := NewRNG(1)
		// Both callbacks are bound once, so allocs/event counts the
		// kernel's allocations, not the benchmark's own closures.
		var client, think func()
		think = func() { s.Schedule(g.Exp(0.05), client) }
		client = func() { rs[g.Intn(len(rs))].Use(g.Exp(0.01), think) }
		for c := 0; c < 64; c++ {
			s.Schedule(g.Exp(0.05), client)
		}
		s.RunUntil(20)
		events += s.Steps()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(events), "allocs/event")
}
