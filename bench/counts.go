package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// counters are the stack's and the runtime's counters, sampled on both
// sides of the measured pass.
type counters struct {
	tel *telemetry.Snapshot
	mem runtime.MemStats
	at  time.Time
}

func snapshot(lab *core.Lab) counters {
	c := counters{tel: lab.Telemetry(), at: time.Now()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// cpuTime is the process's user+sys CPU so far (0 if unreadable).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's resident set from /proc (0 if unreadable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts turns the counter deltas across the measured pass into the
// family A per-layer metrics, normalised per attempted interaction.
func layerCounts(m metricSet, before, after counters, ops int) {
	d := after.tel.Delta(before.tel)
	n := float64(ops)
	kop := n / 1000
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	tier := func(name string) telemetry.Tier {
		if t := d.Tier(name); t != nil {
			return *t
		}
		return telemetry.Tier{}
	}
	// Pools are named "<kind>@addr" alone and "<kind>..." when summed.
	poolWaitUs := func(t telemetry.Tier, kind string) float64 {
		if t.Pool == nil || !strings.HasPrefix(t.Pool.Name, kind) {
			return 0
		}
		return ratio(float64(t.Pool.WaitNanos)/1e3, n)
	}

	web, app, ejb, db := tier("web"), tier("servlet"), tier("ejb"), tier("db")

	set("httpd.resp_kb_per_op", ratio(float64(web.Bytes)/1024, n))
	pageLookups := web.PageCacheHits + web.PageCacheMisses + web.PageCacheBypasses
	set("lb.page_hit_frac", ratio(float64(web.PageCacheHits), float64(pageLookups)))
	set("lb.page_invalidations_per_kop", ratio(float64(web.PageCacheInvalidations), kop))
	if len(d.AppBackends) > 1 {
		lo, hi, sum := d.AppBackends[0].Routed, d.AppBackends[0].Routed, int64(0)
		for _, b := range d.AppBackends {
			lo, hi, sum = min(lo, b.Routed), max(hi, b.Routed), sum+b.Routed
		}
		set("lb.routed_imbalance_frac", ratio(float64(hi-lo), float64(sum)))
	}
	set("servlet.requests_per_op", ratio(float64(app.Requests), n))
	set("ajp.pool_wait_us_per_op", poolWaitUs(web, "ajp"))
	set("rmi.pool_wait_us_per_op", poolWaitUs(app, "rmi"))
	set("ejb.stmts_per_op", ratio(float64(ejb.Queries), n))
	set("ejb.loads_per_op", ratio(float64(ejb.Loads), n))
	set("ejb.stores_per_op", ratio(float64(ejb.Stores), n))

	// The cluster client lives in the servlet tier, or in the EJB tier
	// under ArchEJB; the other one's counters are zero.
	cl := app
	if ejb.Name != "" {
		cl = ejb
	}
	set("cluster.query_hit_frac", ratio(float64(cl.QueryCacheHits), float64(cl.QueryCacheHits+cl.QueryCacheMisses)))
	set("cluster.query_invalidations_per_kop", ratio(float64(cl.QueryCacheInvalidations), kop))
	set("cluster.broadcasts_per_op", ratio(float64(cl.Broadcasts), n))
	set("cluster.acks_per_broadcast", ratio(float64(cl.BroadcastAcks), float64(cl.Broadcasts)))
	var lag int64
	for _, r := range d.Replicas {
		lag += r.LagNanos
	}
	set("cluster.replica_lag_us_per_write", ratio(float64(lag)/1e3, float64(cl.Broadcasts)))
	set("cluster.pool_wait_us_per_op", poolWaitUs(cl, "db"))
	routed := cl.ShardSingle + cl.ShardScatter + cl.ShardBroadcast
	set("cluster.shard_single_frac", ratio(float64(cl.ShardSingle), float64(routed)))
	set("cluster.shard_scatter_per_op", ratio(float64(cl.ShardScatter), n))
	set("cluster.shard_2pc_per_kop", ratio(float64(cl.Shard2PCTxns), kop))

	set("wire.stmts_per_op", ratio(float64(db.Queries), n))
	set("wire.prepared_frac", ratio(float64(db.PreparedExecs), float64(db.PreparedExecs+db.TextExecs)))
	set("sqldb.plan_hit_frac", ratio(float64(db.PlanHits), float64(db.PlanHits+db.PlanMisses)))
	set("sqldb.snapshot_read_frac", ratio(float64(db.SnapshotReads), float64(db.Queries)))
	set("sqldb.snapshot_refreshes_per_kop", ratio(float64(db.SnapshotRefreshes), kop))
	set("sqldb.commits_per_op", ratio(float64(db.Commits), n))
	set("sqldb.abort_frac", ratio(float64(db.Aborts), float64(db.Commits+db.Aborts)))
	set("sqldb.lock_wait_us_per_op", ratio(float64(db.TxnLockWaitNanos)/1e3, n))
	set("wal.fsyncs_per_op", ratio(float64(db.WALFsyncs), n))
	set("wal.appends_per_fsync", ratio(float64(db.WALAppends), float64(db.WALFsyncs)))
	set("wal.bytes_per_commit", ratio(float64(db.WALBytes), float64(db.WALAppends)))
	set("wal.checkpoints", float64(db.WALCheckpoints))

	set("runtime.alloc_kb_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, n))
	set("runtime.allocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), n))
	set("runtime.gc_pause_ms_per_s", ratio(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, after.at.Sub(before.at).Seconds()))
}
