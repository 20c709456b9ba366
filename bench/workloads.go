package main

import (
	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/core"
	"repro/internal/perfsim"
)

// connections is the closed loop's client count: one goroutine and one
// keep-alive connection each. The box has 2 cores and the stack runs in the
// same process, so two in-flight requests already keep both busy; more
// would only measure the scheduler.
const connections = 2

// slices is how many equal parts the measured pass is cut into. Every
// timing metric is computed per slice and reported as the median of the
// slices, which is what keeps run-to-run spread inside the bounds.
const slices = 5

// workloadSpec is one benchmark workload: a stack configuration, the
// traffic mix that drives it, and the reason it exists. The stack is
// populated from core.Config.Seed = 1 always; only the request stream
// depends on -seed.
type workloadSpec struct {
	Name string
	Why  string
	Mix  string
	// Warm is the warm-up pass's request count: enough to fill the plan
	// and statement-id caches, dial every pool connection and take the
	// first MVCC snapshots.
	Warm int
	// EstIPS is the throughput the request stream is generated ahead for,
	// twice over, before each timed slice.
	EstIPS int
	// LockAbort names the one interaction that may answer 500 and leave the
	// run correct, because the seed's stack does that to it: about once in
	// 250 000 interactions sqldb aborts a buyconfirm transaction whose lock
	// wait reached 250 ms, and the application answers 500. Why the wait
	// gets that long with two connections is a correctness issue of its
	// own. Empty on the workloads that never failed.
	LockAbort string
	// WAL gives the database tier a data directory (write-ahead log).
	WAL    bool
	Config core.Config
	// Which stand-alone fixtures this workload's request path crosses.
	AJP, RMI, LB bool
}

// workloads lists the five stack workloads. Each optimisable layer has one
// workload that exercises it and at least one that bypasses it.
var workloads = []workloadSpec{
	{
		Name: "shop_php",
		Why:  "Thinnest dispatch path and only bookstore coverage: the sqldb executor does the work; ajp, rmi, ejb, lb, caches and WAL do none (their no-change control).",
		Mix:  bookstore.ShoppingMix, Warm: 2000, EstIPS: 3000, LockAbort: "buyconfirm",
		Config: core.Config{Arch: perfsim.ArchPHP, Benchmark: perfsim.Bookstore,
			BookScale: bookstore.DefaultScale()},
	},
	{
		Name: "bid_servlet_wal",
		Why:  "15% writes beside reads through ajp, servlet, wire transactions, ROWA broadcast to 2 replicas and WAL fsync: where group commit and fsync overlap must show.",
		Mix:  auction.BiddingMix, Warm: 2000, EstIPS: 2000, WAL: true, AJP: true,
		Config: core.Config{Arch: perfsim.ArchServlet, Benchmark: perfsim.Auction,
			AuctionScale: auction.DefaultScale(), DBReplicas: 2},
	},
	{
		Name: "bid_ejb",
		Why:  "About 5 small statements per interaction through rmi and ejb CMP: round trips (rmi, pool, wire codec, plan cache) do the work, the executor does PK lookups.",
		Mix:  auction.BiddingMix, Warm: 4000, EstIPS: 9000, AJP: true, RMI: true,
		Config: core.Config{Arch: perfsim.ArchEJB, Benchmark: perfsim.Auction,
			AuctionScale: auction.DefaultScale()},
	},
	{
		Name: "browse_lb_cached",
		Why:  "Read-only browsing over 2 balanced app backends with page cache (256) and query cache (512): lb and both caches do the work; every other workload bypasses them.",
		Mix:  auction.BrowsingMix, Warm: 4000, EstIPS: 8000, AJP: true, LB: true,
		Config: core.Config{Arch: perfsim.ArchServletSync, Benchmark: perfsim.Auction,
			AuctionScale: auction.DefaultScale(), AppReplicas: 2, PageCache: 256, DBQueryCache: 512},
	},
	{
		Name: "bid_sharded",
		Why:  "Bidding mix over 2 shards x 2 replicas: shard-key routing, scatter-gather merge and 2PC in the cluster layer, which no other workload executes.",
		Mix:  auction.BiddingMix, Warm: 2000, EstIPS: 3500, AJP: true,
		Config: core.Config{Arch: perfsim.ArchServlet, Benchmark: perfsim.Auction,
			AuctionScale: auction.DefaultScale(), DBShards: 2, DBReplicas: 2},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// writeInteractions names the interactions that commit database writes or
// mutate session state — the write_* latency class.
var writeInteractions = map[string]bool{
	// auction
	"storebid": true, "storebuynow": true, "storecomment": true,
	"registeritem": true, "registeruser": true,
	// bookstore
	"shoppingcart": true, "customerregistration": true,
	"buyconfirm": true, "adminconfirm": true,
}

// uniqueKeyInteractions insert a row under a unique index, keyed by the
// named request parameter (drawn at random by the profile). The stream
// generator redraws a request whose key it has already used, so that no
// generated request fails by construction.
var uniqueKeyInteractions = map[string]string{
	"registeruser": "nickname", "customerregistration": "uname",
}

// metricDef declares one metric. BENCHMARK.json repeats these lists; a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd are the metrics a user of the stack would see, defined and
// non-zero on every workload, that hold a bound on this box. ips and
// cpu_ms_per_op are reported at the reference host speed (hostprobe.go), and
// the time-based bounds are still as wide as the contract allows: ten runs
// of identical code spread up to 18 % between their quartiles (README,
// Steadiness).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ips", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayer are the single-layer metrics (no bound). Family A are deltas of
// the stack's own counters over the measured pass; family B are the ladder
// probes of the traced pass. A layer the workload bypasses reads 0 — the
// evidence that the workload is that layer's no-change control.
var perLayer = []metricDef{
	// The loader's other figures, as timed: the latency percentiles, which
	// cannot hold a bound on this box (README, Steadiness), the write
	// latency classes, which the read-only mix does not have, and the
	// failure fraction, which is 0 on the seed and judged through correct.
	{"p50_ms", "ms", "lower", 0},
	{"p99_ms", "ms", "lower", 0},
	{"write_p50_ms", "ms", "lower", 0},
	{"write_p95_ms", "ms", "lower", 0},
	{"fail_frac", "frac", "lower", 0},

	// The host's memory latency around the measured pass (hostprobe.go),
	// which ips and cpu_ms_per_op were scaled by, over 180.
	{"host.memlat_ns", "ns", "lower", 0},

	// Family A — in-run counts.
	{"httpd.resp_kb_per_op", "KB", "lower", 0},
	{"lb.page_hit_frac", "frac", "higher", 0},
	{"lb.page_invalidations_per_kop", "1/kop", "lower", 0},
	{"lb.routed_imbalance_frac", "frac", "lower", 0},
	{"servlet.requests_per_op", "count", "lower", 0},
	{"ajp.pool_wait_us_per_op", "us", "lower", 0},
	{"rmi.pool_wait_us_per_op", "us", "lower", 0},
	{"ejb.stmts_per_op", "count", "lower", 0},
	{"ejb.loads_per_op", "count", "lower", 0},
	{"ejb.stores_per_op", "count", "lower", 0},
	{"cluster.query_hit_frac", "frac", "higher", 0},
	{"cluster.query_invalidations_per_kop", "1/kop", "lower", 0},
	{"cluster.broadcasts_per_op", "count", "lower", 0},
	{"cluster.acks_per_broadcast", "count", "higher", 0},
	{"cluster.replica_lag_us_per_write", "us", "lower", 0},
	{"cluster.pool_wait_us_per_op", "us", "lower", 0},
	{"cluster.shard_single_frac", "frac", "higher", 0},
	{"cluster.shard_scatter_per_op", "count", "lower", 0},
	{"cluster.shard_2pc_per_kop", "1/kop", "lower", 0},
	{"wire.stmts_per_op", "count", "lower", 0},
	{"wire.prepared_frac", "frac", "higher", 0},
	{"sqldb.plan_hit_frac", "frac", "higher", 0},
	{"sqldb.snapshot_read_frac", "frac", "higher", 0},
	{"sqldb.snapshot_refreshes_per_kop", "1/kop", "lower", 0},
	{"sqldb.commits_per_op", "count", "lower", 0},
	{"sqldb.abort_frac", "frac", "lower", 0},
	{"sqldb.lock_wait_us_per_op", "us", "lower", 0},
	{"wal.fsyncs_per_op", "count", "lower", 0},
	{"wal.appends_per_fsync", "count", "higher", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.checkpoints", "count", "lower", 0},
	{"runtime.alloc_kb_per_op", "KB", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"loadgen.p999_ms", "ms", "lower", 0},
	{"loadgen.slice_spread_pct", "pct", "lower", 0},

	// Family B — ladder probes (median microseconds per call).
	{"sqlparse.parse_us", "us", "lower", 0},
	{"sqldb.prepare_hit_us", "us", "lower", 0},
	{"sqldb.exec_point_us", "us", "lower", 0},
	{"sqldb.exec_index_us", "us", "lower", 0},
	{"sqldb.exec_join_us", "us", "lower", 0},
	{"sqldb.exec_agg_us", "us", "lower", 0},
	{"sqldb.exec_scan_us", "us", "lower", 0},
	{"wire.exec_point_us", "us", "lower", 0},
	{"wire.exec_index_us", "us", "lower", 0},
	{"wire.exec_join_us", "us", "lower", 0},
	{"wire.exec_agg_us", "us", "lower", 0},
	{"wire.exec_scan_us", "us", "lower", 0},
	{"wire.self_point_us", "us", "lower", 0},
	{"cluster.exec_point_us", "us", "lower", 0},
	{"cluster.exec_index_us", "us", "lower", 0},
	{"cluster.exec_join_us", "us", "lower", 0},
	{"cluster.exec_agg_us", "us", "lower", 0},
	{"cluster.exec_scan_us", "us", "lower", 0},
	{"cluster.exec_page_us", "us", "lower", 0},
	{"cluster.self_point_us", "us", "lower", 0},
	{"cluster.write_txn_us", "us", "lower", 0},
	{"cluster.read_txn_us", "us", "lower", 0},
	{"httpd.static_us", "us", "lower", 0},
	{"app.form_us", "us", "lower", 0},
	{"app.point_page_us", "us", "lower", 0},
	{"dispatch.self_us", "us", "lower", 0},
	{"ajp.roundtrip_1k_us", "us", "lower", 0},
	{"ajp.roundtrip_16k_us", "us", "lower", 0},
	{"rmi.call_us", "us", "lower", 0},
	{"lb.pagecache_hit_us", "us", "lower", 0},
	{"lb.pagecache_miss_us", "us", "lower", 0},
	{"lb.pick_us", "us", "lower", 0},
	{"wal.commit_1session_us", "us", "lower", 0},
	{"mvcc.refresh_us", "us", "lower", 0},
	{"recon.viewitem_gap_pct", "pct", "lower", 0},
	{"trace.overhead_pct", "pct", "lower", 0},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a declaration list, so that a name
// that was never declared, or declared and never measured, is an error
// instead of a silent gap.
type metricSet map[string]metric

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// fillZero sets every declared metric that has no value to 0: the layer
// was idle on this workload.
func (m metricSet) fillZero(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metric{Unit: d.Unit}
		}
	}
}
