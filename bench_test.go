// Package repro's root benchmarks regenerate every figure of the paper's
// evaluation (Figures 5-14) plus the in-text measurements and the ablation
// studies DESIGN.md calls out. Run them with
//
//	go test -bench=. -benchmem
//
// Throughput figures report interactions/minute as the custom metric
// "ipm" (per configuration sub-benchmark); CPU figures report the
// bottleneck tier's utilization as "cpu%". Shapes, not absolute numbers,
// are the reproduction target — see EXPERIMENTS.md.
package repro_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpd/httpclient"
	"repro/internal/perfsim"
	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/workload"

	"repro/internal/core"
)

// benchOpt keeps bench runs tractable; cmd/repro uses the full windows.
func benchOpt() perfsim.Options {
	return perfsim.Options{Seed: 1, RampUp: 80, Measure: 120}
}

// benchFigureThroughput runs one throughput figure: each configuration is a
// sub-benchmark reporting its peak ipm over a short client sweep.
func benchFigureThroughput(b *testing.B, bench perfsim.Benchmark, mix perfsim.Mix, sweep []int) {
	for _, a := range perfsim.Archs() {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				best := 0.0
				for _, n := range sweep {
					r := perfsim.Run(bench, mix, a, n, benchOpt())
					if r.ThroughputIPM > best {
						best = r.ThroughputIPM
					}
				}
				peak = best
			}
			b.ReportMetric(peak, "ipm")
		})
	}
}

// benchFigureCPU runs one CPU-bars figure: per configuration, utilization
// of each tier at a near-peak load.
func benchFigureCPU(b *testing.B, bench perfsim.Benchmark, mix perfsim.Mix, clients int) {
	for _, a := range perfsim.Archs() {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			var r perfsim.Result
			for i := 0; i < b.N; i++ {
				r = perfsim.Run(bench, mix, a, clients, benchOpt())
			}
			b.ReportMetric(r.CPU[perfsim.TierWeb], "web_cpu%")
			b.ReportMetric(r.CPU[perfsim.TierDB], "db_cpu%")
			if v, ok := r.CPU[perfsim.TierServlet]; ok {
				b.ReportMetric(v, "servlet_cpu%")
			}
			if v, ok := r.CPU[perfsim.TierEJB]; ok {
				b.ReportMetric(v, "ejb_cpu%")
			}
			b.ReportMetric(r.ThroughputIPM, "ipm")
		})
	}
}

var (
	bookSweep   = []int{100, 200, 450}
	bidSweep    = []int{700, 1100, 1600}
	browseSweep = []int{1100, 1800, 2500}
)

// BenchmarkFig05BookstoreShoppingThroughput — Figure 5.
func BenchmarkFig05BookstoreShoppingThroughput(b *testing.B) {
	benchFigureThroughput(b, perfsim.Bookstore, perfsim.ShoppingMix, bookSweep)
}

// BenchmarkFig06BookstoreShoppingCPU — Figure 6.
func BenchmarkFig06BookstoreShoppingCPU(b *testing.B) {
	benchFigureCPU(b, perfsim.Bookstore, perfsim.ShoppingMix, 200)
}

// BenchmarkFig07BookstoreBrowsingThroughput — Figure 7.
func BenchmarkFig07BookstoreBrowsingThroughput(b *testing.B) {
	benchFigureThroughput(b, perfsim.Bookstore, perfsim.BrowsingMix, bookSweep)
}

// BenchmarkFig08BookstoreBrowsingCPU — Figure 8.
func BenchmarkFig08BookstoreBrowsingCPU(b *testing.B) {
	benchFigureCPU(b, perfsim.Bookstore, perfsim.BrowsingMix, 150)
}

// BenchmarkFig09BookstoreOrderingThroughput — Figure 9.
func BenchmarkFig09BookstoreOrderingThroughput(b *testing.B) {
	benchFigureThroughput(b, perfsim.Bookstore, perfsim.OrderingMix, bookSweep)
}

// BenchmarkFig10BookstoreOrderingCPU — Figure 10.
func BenchmarkFig10BookstoreOrderingCPU(b *testing.B) {
	benchFigureCPU(b, perfsim.Bookstore, perfsim.OrderingMix, 200)
}

// BenchmarkFig11AuctionBiddingThroughput — Figure 11.
func BenchmarkFig11AuctionBiddingThroughput(b *testing.B) {
	benchFigureThroughput(b, perfsim.Auction, perfsim.BiddingMix, bidSweep)
}

// BenchmarkFig12AuctionBiddingCPU — Figure 12.
func BenchmarkFig12AuctionBiddingCPU(b *testing.B) {
	benchFigureCPU(b, perfsim.Auction, perfsim.BiddingMix, 1100)
}

// BenchmarkFig13AuctionBrowsingThroughput — Figure 13.
func BenchmarkFig13AuctionBrowsingThroughput(b *testing.B) {
	benchFigureThroughput(b, perfsim.Auction, perfsim.BrowsingMix, browseSweep)
}

// BenchmarkFig14AuctionBrowsingCPU — Figure 14.
func BenchmarkFig14AuctionBrowsingCPU(b *testing.B) {
	benchFigureCPU(b, perfsim.Auction, perfsim.BrowsingMix, 1800)
}

// BenchmarkIPCPerCharCost measures §6.1's in-text number: the cost of
// moving dynamic content between the servlet engine and the web server,
// per byte, on the real AJP implementation.
func BenchmarkIPCPerCharCost(b *testing.B) {
	lab, err := core.Start(core.Config{Arch: perfsim.ArchServlet, Benchmark: perfsim.Auction})
	if err != nil {
		b.Fatal(err)
	}
	defer lab.Close()
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Get("/rubis/viewitem?item=1")
		if err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(resp.Body))
	}
	b.StopTimer()
	if bytes > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bytes)/1000, "µs/char")
	}
}

// BenchmarkEJBQueryTraffic measures §6.1's other in-text number: the small
// statements per interaction the EJB container sends to the database.
func BenchmarkEJBQueryTraffic(b *testing.B) {
	lab, err := core.Start(core.Config{Arch: perfsim.ArchEJB, Benchmark: perfsim.Auction})
	if err != nil {
		b.Fatal(err)
	}
	defer lab.Close()
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	before := lab.EJBQueryCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(fmt.Sprintf("/rubis/viewitem?item=%d", 1+i%20)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lab.EJBQueryCount()-before)/float64(b.N), "stmts/interaction")
}

// BenchmarkRealStackFrontEndCost compares the per-interaction front-end
// cost of the three dispatch paths (in-process module vs AJP servlet vs
// AJP+RMI EJB) on the real stack — the paper's §6 ordering PHP < servlet <
// EJB in cost.
func BenchmarkRealStackFrontEndCost(b *testing.B) {
	for _, a := range []perfsim.Arch{perfsim.ArchPHP, perfsim.ArchServlet, perfsim.ArchEJB} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			lab, err := core.Start(core.Config{Arch: a, Benchmark: perfsim.Auction})
			if err != nil {
				b.Fatal(err)
			}
			defer lab.Close()
			c := httpclient.New(lab.WebAddr(), 10*time.Second)
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Get("/rubis/viewitem?item=2"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealStackWorkload drives the full emulator against the real
// stack briefly per architecture, reporting achieved ipm.
func BenchmarkRealStackWorkload(b *testing.B) {
	for _, a := range []perfsim.Arch{perfsim.ArchPHP, perfsim.ArchServletSync, perfsim.ArchEJB} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			lab, err := core.Start(core.Config{Arch: a, Benchmark: perfsim.Auction})
			if err != nil {
				b.Fatal(err)
			}
			defer lab.Close()
			var rep *workload.Report
			for i := 0; i < b.N; i++ {
				rep, err = lab.Run(workload.Config{
					Clients: 8, Mix: "bidding",
					ThinkMean: time.Millisecond, SessionMean: time.Second,
					RampUp: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
					Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ThroughputIPM, "ipm")
			if rep.Tiers != nil {
				// The paper's headline observable: which tier saturated.
				b.Logf("bottleneck=%s\n%s", rep.Bottleneck(), rep.FormatTiers())
			}
		})
	}
}

// BenchmarkClusterReplicaSweep opens the new scenario axis past the
// paper: the same workload over a 1-, 2- and 4-replica database tier
// (read-one-write-all cluster, DESIGN.md §3), reporting achieved ipm.
func BenchmarkClusterReplicaSweep(b *testing.B) {
	for _, replicas := range []int{1, 2, 4} {
		replicas := replicas
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			lab, err := core.Start(core.Config{
				Arch: perfsim.ArchServletSync, Benchmark: perfsim.Auction,
				DBReplicas: replicas,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer lab.Close()
			var rep *workload.Report
			for i := 0; i < b.N; i++ {
				rep, err = lab.Run(workload.Config{
					Clients: 8, Mix: "browsing",
					ThinkMean: time.Millisecond, SessionMean: time.Second,
					RampUp: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
					Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ThroughputIPM, "ipm")
		})
	}
}

// BenchmarkShardSweep opens the partition-the-data axis (DESIGN.md §11):
// the write-heavy bidding mix over one and two shard groups, one replica
// each. Replication (BenchmarkClusterReplicaSweep) scales reads but makes
// writes *more* expensive — every replica applies them; sharding is the
// axis that scales writes, because a pinned write costs one shard group
// and the groups take them in parallel. The reported write_ipm counts
// only the mix's write-bearing interactions.
//
// The sweep injects a fixed wire latency on every app→db link (the chaos
// proxy's Latency fault) and pins each shard group to one connection, so
// a shard group's capacity is its serial statement pipeline — round trips
// over a link with real latency, the paper's testbed. That is the resource
// sharding multiplies, and it is timer-bound rather than scheduler-bound,
// which keeps the sweep reproducible on small (even single-core) runners
// where a CPU-bound stack cannot show horizontal scaling at all.
func BenchmarkShardSweep(b *testing.B) {
	writeInteractions := []string{"storebid", "storebuynow", "storecomment", "registeritem", "registeruser"}
	for _, shards := range []int{1, 2} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			lab, err := core.Start(core.Config{
				// The non-sync servlet arch is the transactional one: its
				// write sections run inside database transactions, so write
				// contention lives in the database tier — the tier this
				// sweep partitions. (The sync archs serialize writes in the
				// container lock manager, which no amount of DB capacity
				// relieves.)
				Arch: perfsim.ArchServlet, Benchmark: perfsim.Auction,
				// A wide app tier over a one-connection DB pool per shard
				// group: the serial app→db statement pipeline is the
				// bottleneck, and it is what sharding multiplies.
				DBShards: shards, DBReplicas: 1, DBPoolSize: 1, AppPoolSize: 24,
				// Saturation must queue, not time out: the 1-shard arm is
				// meant to be a steady floor, not error-retry noise.
				DBTimeouts: pool.Timeouts{Dial: 2 * time.Second, Op: 2 * time.Second, Wait: 2 * time.Second},
				Chaos:      true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer lab.Close()
			for i := 0; lab.DBProxy(i) != nil; i++ {
				lab.SlowReplica(i, 200*time.Microsecond)
			}
			var rep *workload.Report
			for i := 0; i < b.N; i++ {
				rep, err = lab.Run(workload.Config{
					Clients: 24, Mix: "bidding",
					ThinkMean: time.Millisecond, SessionMean: time.Second,
					RampUp: 100 * time.Millisecond, Measure: 1200 * time.Millisecond,
					Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			var writes int64
			for _, name := range writeInteractions {
				writes += rep.ByInteraction[name]
			}
			b.ReportMetric(float64(writes)/rep.MeasureDuration.Seconds()*60, "write_ipm")
			b.ReportMetric(rep.ThroughputIPM, "ipm")
		})
	}
}

// BenchmarkAppReplicaSweep opens the scale-the-middle-tier axis the paper
// asks about: the same workload over a 1-, 2- and 4-backend application
// tier behind the front-end load balancer (internal/lb), with the database
// tier fixed at one replica. The per-backend AJP/database pools are kept
// small so the application tier is the capacity being added — the axis
// that, next to BenchmarkClusterReplicaSweep, answers "replicate the app
// tier or the DB tier?" with numbers.
func BenchmarkAppReplicaSweep(b *testing.B) {
	for _, backends := range []int{1, 2, 4} {
		backends := backends
		b.Run(fmt.Sprintf("appbackends=%d", backends), func(b *testing.B) {
			lab, err := core.Start(core.Config{
				Arch: perfsim.ArchServletSync, Benchmark: perfsim.Auction,
				AppReplicas: backends, DBReplicas: 1, DBPoolSize: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer lab.Close()
			var rep *workload.Report
			for i := 0; i < b.N; i++ {
				rep, err = lab.Run(workload.Config{
					Clients: 48, Mix: "browsing",
					ThinkMean: time.Millisecond, SessionMean: time.Second,
					RampUp: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
					Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ThroughputIPM, "ipm")
		})
	}
}

// BenchmarkTxnContentionSweep opens the rollback-under-contention axis: the
// canonical short write transaction (read a row, insert a child, update the
// parent) runs from parallel workers against 1, 4 and 32 hot rows — from
// every transaction colliding on one row to mostly disjoint write sets —
// with a third of the transactions aborting. Measures the transaction
// subsystem end to end (wire v3 frames, cluster write-order locks, undo
// rollback) under real goroutine concurrency.
func BenchmarkTxnContentionSweep(b *testing.B) {
	for _, hot := range []int{1, 4, 32} {
		hot := hot
		b.Run(fmt.Sprintf("hot=%d", hot), func(b *testing.B) {
			lab, err := core.Start(core.Config{
				Arch: perfsim.ArchServletSync, Benchmark: perfsim.Auction,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer lab.Close()
			cl := lab.Cluster()
			abortErr := fmt.Errorf("contention abort")
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					item := sqldb.Int(1 + n%int64(hot))
					err := cl.WithTx([]string{"bids", "items"}, func(tx *cluster.Session) error {
						res, err := tx.ExecCached("SELECT max_bid FROM items WHERE id = ?", item)
						if err != nil {
							return err
						}
						if len(res.Rows) == 0 {
							return fmt.Errorf("missing item %v", item)
						}
						bid := res.Rows[0][0].AsFloat() + 1
						if _, err := tx.ExecCached(
							`INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date)
							 VALUES (?, 1, ?, ?, 1, 12006)`,
							item, sqldb.Float(bid), sqldb.Float(bid*1.1)); err != nil {
							return err
						}
						if _, err := tx.ExecCached(
							"UPDATE items SET nb_bids = nb_bids + 1, max_bid = ? WHERE id = ?",
							sqldb.Float(bid), item); err != nil {
							return err
						}
						if n%3 == 0 {
							return abortErr // a third of the bids roll back
						}
						return nil
					})
					if err != nil && err != abortErr {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			st := lab.DB().TxnStats()
			b.ReportMetric(float64(st.Rollbacks), "aborts")
			b.ReportMetric(float64(st.DeadlockTimeouts), "dl_timeouts")
		})
	}
}

// BenchmarkReadOnlyTxnSweep measures the reclaimed correctness tax: the
// same three-SELECT read-only business method bracketed by WithTx (full
// transaction — catch-all write-order lock excluding every writer,
// BEGIN/COMMIT broadcast to every replica) versus WithReadTx (pinned
// replica, MVCC snapshots, no cluster locks) over a two-replica database
// tier. The fullTx catch-all also serializes the parallel workers against
// each other; the readTx workers run concurrently — that parallelism is
// the point of the read-only path, so it is measured, not factored out.
func BenchmarkReadOnlyTxnSweep(b *testing.B) {
	for _, mode := range []string{"fullTx", "readTx"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			lab, err := core.Start(core.Config{
				Arch: perfsim.ArchServletSync, Benchmark: perfsim.Auction,
				DBReplicas: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer lab.Close()
			cl := lab.Cluster()
			body := func(tx *cluster.Session) error {
				for _, id := range []int64{1, 2, 3} {
					if _, err := tx.ExecCached(
						"SELECT max_bid FROM items WHERE id = ?", sqldb.Int(id)); err != nil {
						return err
					}
				}
				return nil
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					var err error
					if mode == "readTx" {
						err = cl.WithReadTx(body)
					} else {
						err = cl.WithTx(nil, body)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkCacheSweep measures the caching tier (DESIGN.md §10) on the
// real stack: the full emulator with both cache levels off and on, across
// a read-heavy and a write-heavy mix. The browsing mix is where the tier
// earns its keep — most interactions are anonymous catalog reads that the
// page cache can replay outright and whose queries the result cache
// absorbs; the bidding mix bounds the cost of carrying the caches when
// commits keep invalidating them.
func BenchmarkCacheSweep(b *testing.B) {
	for _, mix := range []string{"browsing", "bidding"} {
		for _, caches := range []string{"off", "on"} {
			mix, caches := mix, caches
			b.Run(fmt.Sprintf("mix=%s/caches=%s", mix, caches), func(b *testing.B) {
				cfg := core.Config{
					Arch: perfsim.ArchServletSync, Benchmark: perfsim.Auction,
				}
				if caches == "on" {
					cfg.DBQueryCache = 512
					cfg.PageCache = 256
					cfg.PageCacheTTL = time.Second
				}
				lab, err := core.Start(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer lab.Close()
				var rep *workload.Report
				for i := 0; i < b.N; i++ {
					rep, err = lab.Run(workload.Config{
						Clients: 8, Mix: mix,
						ThinkMean: time.Millisecond, SessionMean: time.Second,
						RampUp: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
						Seed: 7,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rep.ThroughputIPM, "ipm")
				if rep.Tiers != nil {
					for _, tier := range rep.Tiers.Tiers {
						if n := tier.PageCacheHits + tier.PageCacheMisses; n > 0 {
							b.ReportMetric(100*float64(tier.PageCacheHits)/float64(n), "page_hit%")
						}
						if n := tier.QueryCacheHits + tier.QueryCacheMisses; n > 0 {
							b.ReportMetric(100*float64(tier.QueryCacheHits)/float64(n), "query_hit%")
						}
					}
				}
			})
		}
	}
}

// BenchmarkWALCommitSweep prices durability (DESIGN.md §12): parallel
// auto-commit INSERTs against one engine, purely in memory versus through
// the write-ahead log. Acks follow fsync, so the wal mode pays real disk
// latency; the appends/fsync metric is the group-commit amortization — how
// many commits shared each fsync because they arrived while the previous
// one was in flight.
func BenchmarkWALCommitSweep(b *testing.B) {
	for _, mode := range []string{"mem", "wal"} {
		mode := mode
		b.Run("mode="+mode, func(b *testing.B) {
			db := sqldb.New()
			sess := db.NewSession()
			if _, err := sess.Exec(
				"CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"); err != nil {
				b.Fatal(err)
			}
			sess.Close()
			if mode == "wal" {
				if _, err := db.AttachWAL(sqldb.WALOptions{Dir: b.TempDir(), CheckpointBytes: -1}); err != nil {
					b.Fatal(err)
				}
				defer db.CloseWAL()
			}
			// The group-commit wait is I/O-bound, not CPU-bound: oversubscribe
			// the workers so concurrent commits exist to share an fsync even
			// on a single-CPU runner.
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s := db.NewSession()
				defer s.Close()
				for pb.Next() {
					if _, err := s.Exec("INSERT INTO t (v) VALUES (?)", sqldb.Int(1)); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if ws := db.WALStats(); ws.Fsyncs > 0 {
				b.ReportMetric(float64(ws.Appends)/float64(ws.Fsyncs), "appends/fsync")
			}
		})
	}
}

// --- ablation benches (DESIGN.md §7) ---

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

// BenchmarkAblationCMPGranularity compares per-field CMP stores against
// write-behind batching (ejb.Config.WriteBehind) in the simulation's terms:
// the CMP fanout knob.
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
