package perfsim

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// fastOpt keeps unit-test runs short; shape assertions use generous margins
// because short windows are noisier than the defaults used by cmd/repro.
func fastOpt() Options {
	return Options{Seed: 7, RampUp: 60, Measure: 120}
}

func TestMixWeightsSumToOne(t *testing.T) {
	for _, b := range []Benchmark{Bookstore, Auction} {
		spec := specFor(b)
		for m, w := range spec.mixes {
			if len(w) != len(spec.classes) {
				t.Fatalf("%v/%v: %d weights for %d classes", b, m, len(w), len(spec.classes))
			}
			var sum float64
			for _, v := range w {
				if v < 0 {
					t.Fatalf("%v/%v: negative weight", b, m)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%v/%v: weights sum to %g, want 1", b, m, sum)
			}
		}
	}
}

func TestMixReadWriteFractions(t *testing.T) {
	// Paper §3.1/§3.2: bookstore browsing 95% / shopping 80% / ordering 50%
	// read-only; auction browsing 100% / bidding 85%.
	cases := []struct {
		b    Benchmark
		m    Mix
		want float64
	}{
		{Bookstore, BrowsingMix, 0.95},
		{Bookstore, ShoppingMix, 0.80},
		{Bookstore, OrderingMix, 0.50},
		{Auction, BrowsingMix, 1.00},
		{Auction, BiddingMix, 0.85},
	}
	for _, tc := range cases {
		spec := specFor(tc.b)
		var ro float64
		for i, c := range spec.classes {
			write := false
			for _, st := range c.steps {
				if st.write {
					write = true
				}
			}
			if !write {
				ro += spec.mixes[tc.m][i]
			}
		}
		if math.Abs(ro-tc.want) > 0.02 {
			t.Errorf("%v/%v read-only fraction %.3f, want %.2f", tc.b, tc.m, ro, tc.want)
		}
	}
}

func TestLockIntents(t *testing.T) {
	spec := bookstoreSpec()
	intents := lockIntents(spec)
	buy := intents["buyconfirm"]
	if len(buy) != 4 {
		t.Fatalf("buyconfirm locks %d tables, want 4", len(buy))
	}
	for i := 1; i < len(buy); i++ {
		if buy[i-1].table >= buy[i].table {
			t.Fatal("lock refs must be sorted by table")
		}
	}
	wantWrite := map[int]bool{bkItems: true, bkOrders: true, bkCarts: false, bkCustomers: false}
	for _, ref := range buy {
		if wantWrite[ref.table] != ref.write {
			t.Errorf("buyconfirm table %d write=%v, want %v", ref.table, ref.write, wantWrite[ref.table])
		}
	}
	if _, ok := intents["home"]; ok {
		t.Error("read-only class must not appear in lock intents")
	}
}

func TestRunDeterminism(t *testing.T) {
	opt := fastOpt()
	a := Run(Auction, BiddingMix, ArchPHP, 150, opt)
	b := Run(Auction, BiddingMix, ArchPHP, 150, opt)
	if a.ThroughputIPM != b.ThroughputIPM || a.Completed != b.Completed {
		t.Fatalf("same seed produced different results: %v vs %v", a.ThroughputIPM, b.ThroughputIPM)
	}
	c := Run(Auction, BiddingMix, ArchPHP, 150, Options{Seed: 99, RampUp: 60, Measure: 120})
	if c.Completed == a.Completed && c.MeanResponse == a.MeanResponse {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestLowLoadThroughputMatchesLittlesLaw(t *testing.T) {
	// At 50 clients the auction site is far from saturation: X ≈ N/(Z+R)
	// with R ≈ tens of milliseconds, so X ≈ 50/7 ≈ 7.1/s ≈ 428 ipm.
	r := Run(Auction, BiddingMix, ArchPHP, 50, fastOpt())
	if r.ThroughputIPM < 380 || r.ThroughputIPM > 470 {
		t.Fatalf("low-load throughput %.0f ipm, want ~428", r.ThroughputIPM)
	}
	if r.MeanResponse > 0.5 {
		t.Fatalf("low-load response %.3fs, want well under saturation", r.MeanResponse)
	}
}

func TestUtilizationBounds(t *testing.T) {
	r := Run(Bookstore, ShoppingMix, ArchEJB, 200, fastOpt())
	for tier, u := range r.CPU {
		if u < 0 || u > 100 {
			t.Fatalf("%s utilization %.1f out of [0,100]", tier, u)
		}
	}
	if _, ok := r.CPU[TierEJB]; !ok {
		t.Fatal("EJB configuration must report EJB tier utilization")
	}
	if _, ok := Run(Bookstore, ShoppingMix, ArchPHP, 50, fastOpt()).CPU[TierEJB]; ok {
		t.Fatal("PHP configuration must not report an EJB tier")
	}
}

func TestThroughputConservation(t *testing.T) {
	// Completions per client cannot exceed measure/think on average by much
	// (each client must think between interactions).
	opt := fastOpt()
	n := 100
	r := Run(Auction, BrowsingMix, ArchServletDedicated, n, opt)
	maxPerClient := opt.Measure / thinkTime * 1.6
	if got := float64(r.Completed) / float64(n); got > maxPerClient {
		t.Fatalf("%.2f completions/client exceeds think-time bound %.2f", got, maxPerClient)
	}
}

// TestEvaluateEqualsSerialRun checks that the concurrent evaluator returns,
// point for point, what serial Run calls return.
func TestEvaluateEqualsSerialRun(t *testing.T) {
	opt := fastOpt()
	for _, tc := range []struct {
		b       Benchmark
		m       Mix
		clients map[Arch][]int
	}{
		{Bookstore, ShoppingMix, map[Arch][]int{ArchPHP: {25, 10}, ArchServletSync: {10}, ArchEJB: {10}}},
		{Auction, BiddingMix, map[Arch][]int{ArchServlet: {50, 25}, ArchServletDedicated: {25}, ArchEJB: {25}}},
	} {
		fd := Evaluate(tc.b, tc.m, tc.clients, opt)
		if len(fd.Curves) != len(tc.clients) {
			t.Fatalf("%v/%v: %d curves, want %d", tc.b, tc.m, len(fd.Curves), len(tc.clients))
		}
		for i, c := range fd.Curves {
			if i > 0 && c.Arch <= fd.Curves[i-1].Arch {
				t.Errorf("%v/%v: curves out of Archs() order", tc.b, tc.m)
			}
			var want []Result
			for _, n := range tc.clients[c.Arch] {
				want = append(want, Run(tc.b, tc.m, c.Arch, n, opt))
			}
			if !reflect.DeepEqual(c.Results, want) {
				t.Errorf("%v/%v %v: Evaluate %+v, serial Run %+v", tc.b, tc.m, c.Arch, c.Results, want)
			}
		}
	}
}

// TestShapeClaims checks every claim in short windows. The union of the
// points the claims declare is evaluated once per (benchmark, mix)
// experiment; Fig11Shape's peaks are over whatever points its curves hold.
func TestShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	type experiment struct {
		b Benchmark
		m Mix
	}
	points := make(map[experiment]map[Arch][]int)
	for _, c := range Claims() {
		fs := specOfFigure(c.Figure)
		e := experiment{fs.bench, fs.mix}
		if points[e] == nil {
			points[e] = make(map[Arch][]int)
		}
		for a, ns := range c.Points {
			for _, n := range ns {
				if !slices.Contains(points[e][a], n) {
					points[e][a] = append(points[e][a], n)
				}
			}
		}
	}
	// The experiments are evaluated side by side, so no CPU idles while a
	// small one finishes.
	data := make(map[experiment]FigureData)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for e, p := range points {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fd := Evaluate(e.b, e.m, p, fastOpt())
			mu.Lock()
			data[e] = fd
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, c := range Claims() {
		fs := specOfFigure(c.Figure)
		t.Run(c.Name, func(t *testing.T) { c.Check(data[experiment{fs.bench, fs.mix}], t.Errorf) })
	}
}

func TestFigureMetadata(t *testing.T) {
	if len(AllFigures()) != 10 {
		t.Fatalf("AllFigures() = %d, want 10", len(AllFigures()))
	}
	for _, id := range AllFigures() {
		fs := specOfFigure(id)
		if fs.title == "" {
			t.Errorf("figure %d has no title", id)
		}
		if len(ClientSweep(fs.bench, fs.mix)) < 5 {
			t.Errorf("figure %d sweep too short", id)
		}
	}
}

func TestCurvePeak(t *testing.T) {
	c := Curve{Arch: ArchPHP, Results: []Result{
		{Clients: 10, ThroughputIPM: 100},
		{Clients: 20, ThroughputIPM: 300},
		{Clients: 30, ThroughputIPM: 200},
	}}
	if p := c.Peak(); p.Clients != 20 {
		t.Fatalf("Peak at %d clients, want 20", p.Clients)
	}
}
