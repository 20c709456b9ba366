package perfsim

import "math"

// Claim is one of the paper's shape results (§5–§6), a predicate over the
// experiment its figure plots.
type Claim struct {
	// Name identifies the claim, e.g. "Fig11Shape".
	Name string
	// Figure is the figure the claim is checked under.
	Figure FigureID
	// Points are the client counts the claim reads, per configuration;
	// TestShapeClaims evaluates these in short windows. A figure's
	// ClientSweep holds every point a claim reads at a fixed count;
	// Fig11Shape reads the peak of whatever points a curve holds.
	Points map[Arch][]int
	// Check reports through fail each part of the claim that does not
	// hold on fd.
	Check func(fd FigureData, fail func(format string, args ...any))
}

// Claims returns the shape claims in figure order.
func Claims() []Claim {
	return []Claim{
		{
			// Bookstore shopping: engine-side locking beats database
			// locking, PHP equals servlets (same queries), EJB is worst.
			Name: "Fig5Shape", Figure: Fig05,
			Points: map[Arch][]int{ArchPHP: {200}, ArchServlet: {200}, ArchServletSync: {200},
				ArchServletDedicated: {200}, ArchEJB: {200}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				at := func(a Arch) float64 { return fd.At(a, 200).ThroughputIPM }
				php, servlet, sync, ded, ejb := at(ArchPHP), at(ArchServlet), at(ArchServletSync),
					at(ArchServletDedicated), at(ArchEJB)
				if math.Abs(php-servlet)/php > 0.07 {
					fail("PHP %.0f vs servlet %.0f: same DB interface must give same throughput", php, servlet)
				}
				if math.Abs(php-ded)/php > 0.07 {
					fail("moving servlets to a dedicated machine must not help a DB-bound workload: %.0f vs %.0f", php, ded)
				}
				if sync < php*1.04 {
					fail("sync %.0f must beat non-sync %.0f on the shopping mix", sync, php)
				}
				if ejb > php*0.85 {
					fail("EJB %.0f must be clearly worst (php %.0f)", ejb, php)
				}
			},
		},
		{
			// §5.1: without sync the DB CPU is capped by lock contention;
			// with sync it saturates.
			Name: "Fig5DBUtilization", Figure: Fig06,
			Points: map[Arch][]int{ArchPHP: {300}, ArchServletSync: {300}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				ns, sy := fd.At(ArchPHP, 300), fd.At(ArchServletSync, 300)
				if ns.CPU[TierDB] > 93 {
					fail("non-sync DB CPU %.0f%%, want capped below saturation by lock contention", ns.CPU[TierDB])
				}
				if sy.CPU[TierDB] < 90 {
					fail("sync DB CPU %.0f%%, want ~100%%", sy.CPU[TierDB])
				}
				if ns.DBLockWaitFrac < sy.DBLockWaitFrac {
					fail("non-sync lock wait %.3f must exceed sync %.3f", ns.DBLockWaitFrac, sy.DBLockWaitFrac)
				}
			},
		},
		{
			// Bookstore browsing: read-dominated, no contention, every
			// non-EJB configuration performs the same; EJB trails.
			Name: "Fig7AllEqual", Figure: Fig07,
			Points: map[Arch][]int{ArchPHP: {150}, ArchServlet: {150}, ArchServletSync: {150},
				ArchServletDedicated: {150}, ArchServletDedicatedSync: {150}, ArchEJB: {150}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				base := fd.At(ArchPHP, 150).ThroughputIPM
				for _, a := range []Arch{ArchServlet, ArchServletSync, ArchServletDedicated, ArchServletDedicatedSync} {
					if ipm := fd.At(a, 150).ThroughputIPM; math.Abs(ipm-base)/base > 0.08 {
						fail("%v: %.0f differs from %.0f by more than 8%%", a, ipm, base)
					}
				}
				if ejb := fd.At(ArchEJB, 150).ThroughputIPM; ejb > base*0.85 {
					fail("EJB browsing %.0f must be clearly below %.0f", ejb, base)
				}
			},
		},
		{
			// Bookstore ordering: sync is much better than non-sync.
			Name: "Fig9Shape", Figure: Fig09,
			Points: map[Arch][]int{ArchPHP: {300}, ArchServletSync: {300}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				ns, sy := fd.At(ArchPHP, 300).ThroughputIPM, fd.At(ArchServletSync, 300).ThroughputIPM
				if sy < ns*1.4 {
					fail("ordering mix: sync %.0f vs non-sync %.0f, want much better (>1.4x)", sy, ns)
				}
			},
		},
		{
			// Auction bidding: dedicated servlets > PHP > co-located
			// servlets > EJB.
			Name: "Fig11Shape", Figure: Fig11,
			Points: map[Arch][]int{ArchPHP: {700, 1100, 1500}, ArchServlet: {700, 1100, 1500},
				ArchServletDedicated: {700, 1100, 1500}, ArchEJB: {700, 1100, 1500}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				peak := func(a Arch) float64 { return fd.Curve(a).Peak().ThroughputIPM }
				php, coloc, ded, ejb := peak(ArchPHP), peak(ArchServlet), peak(ArchServletDedicated), peak(ArchEJB)
				if !(ded > php && php > coloc && coloc > ejb) {
					fail("bidding peaks: ded=%.0f php=%.0f coloc=%.0f ejb=%.0f; want ded>php>coloc>ejb",
						ded, php, coloc, ejb)
					return
				}
				// Paper: PHP ≈ 33% over co-located servlets; dedicated ≈ 7% over PHP.
				if ratio := php / coloc; ratio < 1.15 || ratio > 1.55 {
					fail("php/coloc ratio %.2f, want ~1.33", ratio)
				}
				if ratio := ejb / php; ratio > 0.60 {
					fail("ejb/php ratio %.2f, want well below 0.6 (paper 0.42)", ratio)
				}
			},
		},
		{
			// §6.1: no DB lock contention on the auction, so engine-side
			// locking changes nothing.
			Name: "Fig11SyncCoincides", Figure: Fig11,
			Points: map[Arch][]int{ArchServlet: {700}, ArchServletSync: {700}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				a, b := fd.At(ArchServlet, 700).ThroughputIPM, fd.At(ArchServletSync, 700).ThroughputIPM
				if diff := math.Abs(a-b) / a; diff > 0.08 {
					fail("sync and non-sync differ by %.1f%% on auction bidding, want ~0", diff*100)
				}
			},
		},
		{
			// §6.1: the EJB server CPU is the bidding-mix bottleneck with
			// modest utilization elsewhere.
			Name: "Fig12EJBServerSaturates", Figure: Fig12,
			Points: map[Arch][]int{ArchEJB: {900}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				r := fd.At(ArchEJB, 900)
				if r.CPU[TierEJB] < 92 {
					fail("EJB server CPU %.0f%%, want ~99%%", r.CPU[TierEJB])
				}
				if r.CPU[TierDB] > 65 {
					fail("DB CPU %.0f%%, paper reports 17%% (low)", r.CPU[TierDB])
				}
				if r.CPU[TierServlet] > 70 {
					fail("servlet CPU %.0f%%, paper reports 32%% (modest)", r.CPU[TierServlet])
				}
			},
		},
		{
			// Auction browsing: dedicated servlets > PHP > co-located
			// servlets > EJB.
			Name: "Fig13Shape", Figure: Fig13,
			Points: map[Arch][]int{ArchPHP: {1800}, ArchServlet: {1800}, ArchServletDedicated: {1800}, ArchEJB: {1800}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				at := func(a Arch) float64 { return fd.At(a, 1800).ThroughputIPM }
				php, coloc, ded, ejb := at(ArchPHP), at(ArchServlet), at(ArchServletDedicated), at(ArchEJB)
				if !(ded > php && php > coloc && coloc > ejb) {
					fail("browsing: ded=%.0f php=%.0f coloc=%.0f ejb=%.0f; want ded>php>coloc>ejb",
						ded, php, coloc, ejb)
					return
				}
				// Paper §6.2: PHP ≈ 25% over co-located servlets.
				if ratio := php / coloc; ratio < 1.1 || ratio > 1.5 {
					fail("php/coloc browsing ratio %.2f, want ~1.25", ratio)
				}
			},
		},
		{
			// The browsing mix pushes substantial traffic through the web
			// NIC in the dedicated configuration (paper: 94 Mb/s).
			Name: "WebNICTraffic", Figure: Fig14,
			Points: map[Arch][]int{ArchServletDedicated: {2500}},
			Check: func(fd FigureData, fail func(string, ...any)) {
				if nic := fd.At(ArchServletDedicated, 2500).WebNICMbps; nic < 50 {
					fail("web NIC %.0f Mb/s at browsing peak, want high (paper 94)", nic)
				}
			},
		},
	}
}
