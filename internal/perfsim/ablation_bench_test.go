package perfsim_test

import (
	"fmt"
	"testing"

	"repro/internal/perfsim"
)

// The ablation benchmarks (DESIGN.md §15): each isolates one mechanism the
// paper's figures attribute a difference to, by sweeping it alone in the
// simulator. Run them with
//
//	go test -run '^$' -bench Ablation ./internal/perfsim

// benchOpt keeps bench runs tractable; cmd/repro uses the full windows.
func benchOpt() perfsim.Options {
	return perfsim.Options{Seed: 1, RampUp: 80, Measure: 120}
}

// BenchmarkAblationSyncLocking isolates the paper's sync delta on the
// write-heavy mix.
func BenchmarkAblationSyncLocking(b *testing.B) {
	for _, a := range []perfsim.Arch{perfsim.ArchServlet, perfsim.ArchServletSync} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			var r perfsim.Result
			for i := 0; i < b.N; i++ {
				r = perfsim.Run(perfsim.Bookstore, perfsim.OrderingMix, a, 300, benchOpt())
			}
			b.ReportMetric(r.ThroughputIPM, "ipm")
			b.ReportMetric(r.CPU[perfsim.TierDB], "db_cpu%")
		})
	}
}

// BenchmarkAblationCMPGranularity varies the simulation's CMP fanout knob —
// how many short generated queries replace one hand-written query step —
// and reports the EJB configuration's throughput at each setting.
func BenchmarkAblationCMPGranularity(b *testing.B) {
	for _, fanout := range []int{1, 4, 7, 12} {
		fanout := fanout
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			costs := perfsim.DefaultCosts()
			costs.CMPFanout = fanout
			opt := benchOpt()
			opt.Costs = &costs
			var r perfsim.Result
			for i := 0; i < b.N; i++ {
				r = perfsim.Run(perfsim.Auction, perfsim.BiddingMix, perfsim.ArchEJB, 900, opt)
			}
			b.ReportMetric(r.ThroughputIPM, "ipm")
		})
	}
}

// BenchmarkAblationDedicatedTier isolates the extra-machine delta on the
// front-end-bound benchmark.
func BenchmarkAblationDedicatedTier(b *testing.B) {
	for _, a := range []perfsim.Arch{perfsim.ArchServlet, perfsim.ArchServletDedicated} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			var r perfsim.Result
			for i := 0; i < b.N; i++ {
				r = perfsim.Run(perfsim.Auction, perfsim.BiddingMix, a, 1300, benchOpt())
			}
			b.ReportMetric(r.ThroughputIPM, "ipm")
		})
	}
}

// BenchmarkAblationPoolSize sweeps the engine-side connection pool, the
// parameter that bounds database concurrency (beyond-paper extension).
func BenchmarkAblationPoolSize(b *testing.B) {
	for _, size := range []int{4, 12, 32, 96} {
		size := size
		b.Run(fmt.Sprintf("pool=%d", size), func(b *testing.B) {
			costs := perfsim.DefaultCosts()
			costs.DBPoolSize = size
			opt := benchOpt()
			opt.Costs = &costs
			var r perfsim.Result
			for i := 0; i < b.N; i++ {
				r = perfsim.Run(perfsim.Bookstore, perfsim.ShoppingMix, perfsim.ArchServletSync, 300, opt)
			}
			b.ReportMetric(r.ThroughputIPM, "ipm")
		})
	}
}
