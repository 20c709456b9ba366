package perfsim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// FigureID identifies one of the paper's evaluation figures.
type FigureID int

const (
	// Fig05 — bookstore throughput vs clients, shopping mix.
	Fig05 FigureID = 5
	// Fig06 — bookstore CPU utilization at peak, shopping mix.
	Fig06 FigureID = 6
	// Fig07 — bookstore throughput vs clients, browsing mix.
	Fig07 FigureID = 7
	// Fig08 — bookstore CPU utilization at peak, browsing mix.
	Fig08 FigureID = 8
	// Fig09 — bookstore throughput vs clients, ordering mix.
	Fig09 FigureID = 9
	// Fig10 — bookstore CPU utilization at peak, ordering mix.
	Fig10 FigureID = 10
	// Fig11 — auction throughput vs clients, bidding mix.
	Fig11 FigureID = 11
	// Fig12 — auction CPU utilization at peak, bidding mix.
	Fig12 FigureID = 12
	// Fig13 — auction throughput vs clients, browsing mix.
	Fig13 FigureID = 13
	// Fig14 — auction CPU utilization at peak, browsing mix.
	Fig14 FigureID = 14
)

// AllFigures lists the evaluation figures in paper order.
func AllFigures() []FigureID {
	return []FigureID{Fig05, Fig06, Fig07, Fig08, Fig09, Fig10, Fig11, Fig12, Fig13, Fig14}
}

// figureSpec ties a figure to its benchmark, mix and kind.
type figureSpec struct {
	bench   Benchmark
	mix     Mix
	cpuBars bool // false: throughput curve; true: CPU bars at peak
	title   string
}

func specOfFigure(id FigureID) figureSpec {
	switch id {
	case Fig05:
		return figureSpec{Bookstore, ShoppingMix, false, "Online bookstore throughput, shopping mix"}
	case Fig06:
		return figureSpec{Bookstore, ShoppingMix, true, "Online bookstore CPU utilization at peak, shopping mix"}
	case Fig07:
		return figureSpec{Bookstore, BrowsingMix, false, "Online bookstore throughput, browsing mix"}
	case Fig08:
		return figureSpec{Bookstore, BrowsingMix, true, "Online bookstore CPU utilization at peak, browsing mix"}
	case Fig09:
		return figureSpec{Bookstore, OrderingMix, false, "Online bookstore throughput, ordering mix"}
	case Fig10:
		return figureSpec{Bookstore, OrderingMix, true, "Online bookstore CPU utilization at peak, ordering mix"}
	case Fig11:
		return figureSpec{Auction, BiddingMix, false, "Auction site throughput, bidding mix"}
	case Fig12:
		return figureSpec{Auction, BiddingMix, true, "Auction site CPU utilization at peak, bidding mix"}
	case Fig13:
		return figureSpec{Auction, BrowsingMix, false, "Auction site throughput, browsing mix"}
	case Fig14:
		return figureSpec{Auction, BrowsingMix, true, "Auction site CPU utilization at peak, browsing mix"}
	default:
		panic(fmt.Sprintf("perfsim: unknown figure %d", id))
	}
}

// ClientSweep returns the client counts simulated for a benchmark/mix curve.
// The ranges bracket the paper's peaks (auction browsing extends to 14,000
// clients; the paper pushes it to 12,000).
func ClientSweep(b Benchmark, m Mix) []int {
	switch {
	case b == Bookstore:
		return []int{10, 25, 50, 75, 100, 150, 200, 300, 450, 600, 800, 1100, 1600}
	case b == Auction && m == BiddingMix:
		return []int{100, 200, 350, 500, 700, 900, 1100, 1300, 1600, 2000}
	default: // auction browsing
		return []int{200, 500, 800, 1100, 1400, 1800, 2500, 4000, 7000, 10000, 14000}
	}
}

// Title is the figure's caption.
func (id FigureID) Title() string { return specOfFigure(id).title }

// CPU reports whether the figure plots per-tier CPU utilization at each
// configuration's peak rather than throughput curves.
func (id FigureID) CPU() bool { return specOfFigure(id).cpuBars }

// Curve is one configuration's series in a throughput figure.
type Curve struct {
	Arch    Arch
	Results []Result
}

// Peak returns the sweep point with maximum throughput.
func (c Curve) Peak() Result {
	best := c.Results[0]
	for _, r := range c.Results[1:] {
		if r.ThroughputIPM > best.ThroughputIPM {
			best = r
		}
	}
	return best
}

// FigureData is one evaluated (benchmark, mix) experiment: one curve per
// configuration. The paper plots each experiment twice, as a throughput
// figure and as the CPU-at-peak bar chart after it.
type FigureData struct {
	Bench  Benchmark
	Mix    Mix
	Curves []Curve
}

// Curve returns configuration a's curve; it panics if fd has none.
func (fd FigureData) Curve(a Arch) Curve {
	for _, c := range fd.Curves {
		if c.Arch == a {
			return c
		}
	}
	panic(fmt.Sprintf("perfsim: %v/%v has no %v curve", fd.Bench, fd.Mix, a))
}

// At returns configuration a's result at n clients; it panics if fd did not
// simulate that point.
func (fd FigureData) At(a Arch, n int) Result {
	for _, r := range fd.Curve(a).Results {
		if r.Clients == n {
			return r
		}
	}
	panic(fmt.Sprintf("perfsim: %v/%v has no %v point at %d clients", fd.Bench, fd.Mix, a, n))
}

// Evaluate simulates the (b, m) experiment at the client counts asked for
// each configuration: one Curve per configuration in clients, in Archs()
// order, one Result per client count, in the order asked. The points run on
// runtime.GOMAXPROCS(0) goroutines; each Run writes its own slot, so the
// data equals that of serial Run calls.
func Evaluate(b Benchmark, m Mix, clients map[Arch][]int, opt Options) FigureData {
	fd := FigureData{Bench: b, Mix: m}
	type point struct{ curve, i, clients int }
	var points []point
	for _, a := range Archs() {
		ns, ok := clients[a]
		if !ok {
			continue
		}
		for i, n := range ns {
			points = append(points, point{len(fd.Curves), i, n})
		}
		fd.Curves = append(fd.Curves, Curve{Arch: a, Results: make([]Result, len(ns))})
	}
	// Largest client counts first: they run longest, and starting them
	// early keeps every worker busy until the end.
	sort.SliceStable(points, func(i, j int) bool { return points[i].clients > points[j].clients })
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(points)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(points) {
					return
				}
				p := points[k]
				c := &fd.Curves[p.curve]
				c.Results[p.i] = Run(b, m, c.Arch, p.clients, opt)
			}
		}()
	}
	wg.Wait()
	return fd
}

// Figure evaluates the experiment figure id plots: every configuration
// across ClientSweep. A throughput figure and the CPU figure after it plot
// the same experiment.
func Figure(id FigureID, opt Options) FigureData {
	fs := specOfFigure(id)
	sweep := ClientSweep(fs.bench, fs.mix)
	clients := make(map[Arch][]int)
	for _, a := range Archs() {
		clients[a] = sweep
	}
	return Evaluate(fs.bench, fs.mix, clients, opt)
}
