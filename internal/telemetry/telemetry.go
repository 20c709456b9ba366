// Package telemetry defines the cross-tier saturation snapshot the stack
// reports: each tier contributes its request/query counters and the
// pool.Stats of its downstream transport pool, and the snapshot names the
// bottleneck tier — the paper's headline observable (which tier saturates
// under each middleware configuration, §5–§6).
//
// The package is a leaf so every layer can speak the same type: each tier
// owner fills its own Tier row (a Telemetry method), core.Lab folds the
// rows into snapshots and serves them as JSON on /status,
// workload.Report embeds a windowed delta, and cmd/loadgen decodes the
// JSON from a remote server. A counter that crosses tiers is declared here
// once: the cluster client fills a ClusterStats (cluster.ClientStats is this
// type) and the Tier row of whichever tier owns the client embeds it, so
// nothing in between copies fields. Add and Delta (accumulate, below) are
// the only code that combines rows, and they walk the struct.
package telemetry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/pool"
)

// ClusterStats is the cluster client's counters (internal/cluster fills it;
// cluster.ClientStats is this type). To add one: declare the field here, and
// count it in the cluster package where ClientStats() is assembled.
type ClusterStats struct {
	// Broadcasts counts statements fanned out to all replicas concurrently,
	// BroadcastAcks the replica acknowledgements they gathered (acks ÷
	// broadcasts ≈ replicas reached per write).
	Broadcasts    int64 `json:"broadcasts,omitempty"`
	BroadcastAcks int64 `json:"broadcast_acks,omitempty"`
	// Robustness counters. The transport-level figures — operation deadlines
	// hit, pool-wait timeouts — live in Tier.Pool; these are the routing-level
	// ones: replicas ejected for lagging the broadcast pack, and the
	// strict-write degraded (read-only) mode's entries, exits, and fast-failed
	// writes. Degraded is the latch itself: true while the cluster (any
	// shard, any backend's client) is read-only right now.
	SlowEjections   int64 `json:"slow_ejections,omitempty"`
	DegradedEntries int64 `json:"degraded_entries,omitempty"`
	DegradedExits   int64 `json:"degraded_exits,omitempty"`
	DegradedRejects int64 `json:"degraded_rejects,omitempty"`
	Degraded        bool  `json:"degraded,omitempty"`
	// Sharding counters (a client fronting a horizontally partitioned
	// database tier): Shards is the shard-group count, ShardSingle the
	// statements routed to exactly one owning shard, ShardScatter the reads
	// fanned to every shard and merged client-side, ShardBroadcast the
	// keyless writes/DDL sent everywhere, and Shard2PCTxns the transactions
	// that touched several shards and committed through two-phase commit.
	Shards         int   `json:"shards,omitempty"`
	ShardSingle    int64 `json:"shard_single,omitempty"`
	ShardScatter   int64 `json:"shard_scatter,omitempty"`
	ShardBroadcast int64 `json:"shard_broadcast,omitempty"`
	Shard2PCTxns   int64 `json:"shard_2pc_txns,omitempty"`
	// Query-result cache (DESIGN.md §10; zero when disabled): hits were
	// served without touching the database tier, invalidations are entries
	// dropped because a referenced table's commit-time version moved, and
	// bypasses are reads forced live because the session's transaction
	// write-held a referenced table.
	QueryCacheHits          int64 `json:"query_cache_hits,omitempty"`
	QueryCacheMisses        int64 `json:"query_cache_misses,omitempty"`
	QueryCacheInvalidations int64 `json:"query_cache_invalidations,omitempty"`
	QueryCacheBypasses      int64 `json:"query_cache_bypasses,omitempty"`
	// Rejoin data copies by path (DESIGN.md §12): log-shipping delta (and
	// the statements it replayed) versus full table copy.
	WALDeltaSyncs int64 `json:"wal_delta_syncs,omitempty"`
	WALFullSyncs  int64 `json:"wal_full_syncs,omitempty"`
	WALDeltaStmts int64 `json:"wal_delta_stmts,omitempty"`
}

// Tier is one tier's counters. The Pool is the tier's client-side pool to
// the tier below it, so its wait time measures downstream saturation as
// seen from this tier (e.g. the servlet tier's pool is its database
// connection pool).
type Tier struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests,omitempty"`
	Queries  int64  `json:"queries,omitempty"`
	Loads    int64  `json:"loads,omitempty"`
	Stores   int64  `json:"stores,omitempty"`
	// Bytes is the tier's outbound payload volume (the web tier reports
	// response-body bytes — the NIC-bandwidth observable of the paper's
	// CPU figures).
	Bytes int64       `json:"bytes,omitempty"`
	Pool  *pool.Stats `json:"pool,omitempty"`
	// The database tier splits Queries by arrival path — EXECUTE-by-id
	// (prepared) vs SQL text — and reports its shared plan cache, the
	// statements-parsed-once observable of the wire protocol v2 work.
	PreparedExecs int64 `json:"prepared_execs,omitempty"`
	TextExecs     int64 `json:"text_execs,omitempty"`
	PlanHits      int64 `json:"plan_hits,omitempty"`
	PlanMisses    int64 `json:"plan_misses,omitempty"`
	// Transaction outcomes. For the database tier these are the engine's
	// counters (every BEGIN/COMMIT/ROLLBACK served); for the EJB tier they
	// are container-managed demarcation outcomes, and ReadOnlyTxns counts
	// the commits of business methods that never wrote, whose lazy
	// demarcation opened no database transaction. DeadlockTimeouts counts
	// transactions aborted by the lock wait timeout, and TxnLockWaitNanos
	// is cumulative time transactions spent blocked on table write locks — both
	// feed the bottleneck heuristic as database-tier saturation evidence.
	Commits          int64 `json:"commits,omitempty"`
	ReadOnlyTxns     int64 `json:"readonly_txns,omitempty"`
	Aborts           int64 `json:"aborts,omitempty"`
	DeadlockTimeouts int64 `json:"deadlock_timeouts,omitempty"`
	TxnLockWaitNanos int64 `json:"txn_lock_wait_nanos,omitempty"`
	// MVCC read-path counters (database tier): SELECT statements served from
	// committed views (all but a transaction's reads of its own writes),
	// per-table reads of an installed view that was still current (one
	// atomic load), and views re-taken after a commit — an O(1) clone under
	// the table's leaf mutex, then every reader until the next write rides
	// it.
	SnapshotReads     int64 `json:"snapshot_reads,omitempty"`
	LockBypasses      int64 `json:"lock_bypasses,omitempty"`
	SnapshotRefreshes int64 `json:"snapshot_refreshes,omitempty"`
	// ClusterStats is the tier's cluster client (servlet or ejb; summed over
	// a replicated tier's backends). Its fields are promoted, in Go and in
	// the JSON alike.
	ClusterStats
	// The HTTP page cache (DESIGN.md §10) lives in the web tier: hits were
	// served without touching the app tier at all. A tier below a hot cache
	// sees only the miss traffic — the Format verdict annotates the
	// bottleneck line so the shrunken load is not misread.
	PageCacheHits          int64 `json:"page_cache_hits,omitempty"`
	PageCacheMisses        int64 `json:"page_cache_misses,omitempty"`
	PageCacheInvalidations int64 `json:"page_cache_invalidations,omitempty"`
	PageCacheBypasses      int64 `json:"page_cache_bypasses,omitempty"`
	// Durability counters (DESIGN.md §12), aggregated over the database
	// tier's write-ahead logs: record batches appended, fsyncs issued
	// (appends ÷ fsyncs is the group-commit amortization), log bytes written,
	// checkpoints taken, and boot-time recoveries.
	WALAppends     int64 `json:"wal_appends,omitempty"`
	WALFsyncs      int64 `json:"wal_fsyncs,omitempty"`
	WALBytes       int64 `json:"wal_bytes,omitempty"`
	WALCheckpoints int64 `json:"wal_checkpoints,omitempty"`
	WALRecoveries  int64 `json:"wal_recoveries,omitempty"`
	// Downstream names the tier Pool dials into. Pool wait time is
	// evidence that *that* tier's connections are all busy, so
	// Bottleneck charges the wait there, not to the pool's holder.
	Downstream string `json:"downstream,omitempty"`
}

// Replica is one database backend's view in a replicated (read-one-write-
// all) run: how the cluster client routed traffic to it, its health, and —
// when the snapshot owner also runs the servers — the statements it served.
// Lag is the cumulative time this replica's write acknowledgements trailed
// the fastest acknowledgement of each (concurrent) broadcast — zero on
// whichever replica answered first.
type Replica struct {
	ID int `json:"id"`
	// Shard is the owning shard group's index on a sharded cluster
	// (always 0 when the database tier is unsharded).
	Shard   int    `json:"shard"`
	Addr    string `json:"addr,omitempty"`
	Healthy bool   `json:"healthy"`
	// Reads / Writes count statements the cluster client routed here;
	// Ejections counts health ejections after transport failures.
	Reads     int64 `json:"reads"`
	Writes    int64 `json:"writes"`
	Ejections int64 `json:"ejections,omitempty"`
	LagNanos  int64 `json:"lag_nanos,omitempty"`
	// Queries is the replica server's own statement counter (server-side
	// view; 0 when the snapshot was taken from the client side only).
	Queries int64       `json:"queries,omitempty"`
	Pool    *pool.Stats `json:"pool,omitempty"`
	// Write-ahead log counters for this replica's backend (zero when the
	// snapshot owner does not run the servers, or the backend has no WAL):
	// appends/fsyncs/bytes measure the log, Checkpoints the snapshots it
	// rotated against, Recoveries whether this process recovered its state
	// from disk at boot.
	WALAppends  int64 `json:"wal_appends,omitempty"`
	WALFsyncs   int64 `json:"wal_fsyncs,omitempty"`
	WALBytes    int64 `json:"wal_bytes,omitempty"`
	Checkpoints int64 `json:"checkpoints,omitempty"`
	Recoveries  int64 `json:"recoveries,omitempty"`
}

// AppBackend is one application-tier backend's view in a load-balanced
// (replicated application tier) run: how the front-end balancer
// (internal/lb) routed traffic to it, its health, and — when the snapshot
// owner also runs the containers — the requests it served. Routed counts
// balancer dispatches; Affinity counts the subset pinned here by session
// affinity; Failovers counts pinned requests redirected to another backend
// because this one was down.
type AppBackend struct {
	ID        string `json:"id"`
	Healthy   bool   `json:"healthy"`
	Routed    int64  `json:"routed"`
	Affinity  int64  `json:"affinity,omitempty"`
	Failovers int64  `json:"failovers,omitempty"`
	Errors    int64  `json:"errors,omitempty"`
	Ejections int64  `json:"ejections,omitempty"`
	// InFlight is the balancer's requests-outstanding gauge at snapshot
	// time — the least-in-flight routing signal.
	InFlight int `json:"in_flight"`
	// Requests is the backend container's own served count (container-side
	// view; 0 when the snapshot was taken from the balancer side only).
	Requests int64 `json:"requests,omitempty"`
	// Pool is the balancer-side connector pool into this backend.
	Pool *pool.Stats `json:"pool,omitempty"`
}

// Snapshot is the whole stack at one moment (or, after Delta, over one
// measurement window).
type Snapshot struct {
	Arch      string `json:"arch,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Tiers     []Tier `json:"tiers"`
	// Replicas is the database tier's per-backend breakdown when the stack
	// runs a replicated cluster; empty for a single-backend run.
	Replicas []Replica `json:"replicas,omitempty"`
	// AppBackends is the application tier's per-backend breakdown when the
	// stack runs load-balanced container replicas; empty otherwise.
	AppBackends []AppBackend `json:"app_backends,omitempty"`
}

// Tier returns the named tier, or nil.
func (s *Snapshot) Tier(name string) *Tier {
	for i := range s.Tiers {
		if s.Tiers[i].Name == name {
			return &s.Tiers[i]
		}
	}
	return nil
}

// Delta returns the per-tier counter differences s−prev (for counters
// accumulated since boot), keeping s's gauges. Tiers, replicas and backends
// missing from prev pass through unchanged.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	if prev == nil {
		prev = &Snapshot{}
	}
	out := &Snapshot{Arch: s.Arch, Benchmark: s.Benchmark}
	for _, t := range s.Tiers {
		if pt := prev.Tier(t.Name); pt != nil {
			sub(&t, *pt)
		}
		out.Tiers = append(out.Tiers, t)
	}
	for _, r := range s.Replicas {
		if pr := prev.Replica(r.ID); pr != nil {
			sub(&r, *pr)
		}
		out.Replicas = append(out.Replicas, r)
	}
	for _, a := range s.AppBackends {
		if pa := prev.AppBackend(a.ID); pa != nil {
			sub(&a, *pa)
		}
		out.AppBackends = append(out.AppBackends, a)
	}
	return out
}

// Add sums src into dst — two backends' rows for one tier, two clients'
// views of one replica, a shard's ClusterStats into its client's. T is
// ClusterStats or one of the Snapshot row types.
func Add[T any](dst *T, src T) {
	accumulate(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), +1)
}

func sub[T any](dst *T, prev T) {
	accumulate(reflect.ValueOf(dst).Elem(), reflect.ValueOf(prev), -1)
}

var poolStatsType = reflect.TypeOf((*pool.Stats)(nil))

// accumulate is the one rule for combining two rows of the same struct type,
// dst += sign·src, field by field (it runs when a snapshot is taken, never
// per request):
//
//   - int64 fields are cumulative counters: they add, or subtract for a Delta.
//   - bool fields OR on add — the Degraded latch: one contributor suffices to
//     set it — and a Delta keeps dst's, the current state. (Healthy means the
//     opposite, so core ANDs it itself when it merges clients' replica views.)
//   - int and string fields are gauges, topology figures, ids and names:
//     dst's value stands.
//   - *pool.Stats follows the pool package's own rules (Sum, Sub — gauges and
//     latency estimates included); a nil side leaves dst's pointer alone.
//   - embedded structs recurse.
//
// Any other kind panics: a new float64 or nested type must be given a rule
// here before it can ship (TestAccumulateCoversEveryField).
func accumulate(dst, src reflect.Value, sign int64) {
	for i := 0; i < dst.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		if d.Type() == poolStatsType {
			if dp, sp := d.Interface().(*pool.Stats), s.Interface().(*pool.Stats); dp != nil && sp != nil {
				// A fresh value: dst may share its pointer with the snapshot it was copied from.
				sum := dp.Sub(*sp)
				if sign > 0 {
					sum = pool.Sum(dp.Name, []pool.Stats{*dp, *sp})
				}
				d.Set(reflect.ValueOf(&sum))
			}
			continue
		}
		switch d.Kind() {
		case reflect.Int64:
			d.SetInt(d.Int() + sign*s.Int())
		case reflect.Bool:
			d.SetBool(d.Bool() || (sign > 0 && s.Bool()))
		case reflect.Int, reflect.String:
		case reflect.Struct:
			accumulate(d, s, sign)
		default:
			panic(fmt.Sprintf("telemetry: no accumulate rule for %s.%s (%s)", dst.Type(), dst.Type().Field(i).Name, d.Type()))
		}
	}
}

// AppBackend returns the application backend with the given id, or nil.
func (s *Snapshot) AppBackend(id string) *AppBackend {
	for i := range s.AppBackends {
		if s.AppBackends[i].ID == id {
			return &s.AppBackends[i]
		}
	}
	return nil
}

// Replica returns the replica with the given id, or nil.
func (s *Snapshot) Replica(id int) *Replica {
	for i := range s.Replicas {
		if s.Replicas[i].ID == id {
			return &s.Replicas[i]
		}
	}
	return nil
}

// Bottleneck names the most saturated tier: first by the cumulative time
// borrowers spent blocked waiting for a connection *into* it (a pool's
// wait time is charged to its Downstream tier — all of that tier's
// connections being busy is what made borrowers queue), then by the
// utilization of pools dialing into it, then by its own work count
// (requests+queries) as the proxy when nothing ever queued.
func (s *Snapshot) Bottleneck() string {
	if len(s.Tiers) == 0 {
		return ""
	}
	scores := make(map[string]*[3]float64, len(s.Tiers))
	for _, t := range s.Tiers {
		scores[t.Name] = &[3]float64{2: float64(t.Requests + t.Queries)}
	}
	for _, t := range s.Tiers {
		// Time transactions spent blocked on the database's table locks is
		// the same kind of evidence as pool wait time: work queued because
		// the tier below was busy — charged to the tier that owns the locks.
		scores[t.Name][0] += float64(t.TxnLockWaitNanos)
		if t.Pool == nil {
			continue
		}
		target := t.Downstream
		if _, ok := scores[target]; !ok {
			target = t.Name // unnamed or unknown downstream: charge the holder
		}
		sc := scores[target]
		// Time burned on operations that hit their deadline is the same
		// evidence as wait time, only stronger: the tier below was not just
		// busy but unresponsive. Both charge to the pool's Downstream, so a
		// stalled database reads as "db is the bottleneck (timing out)".
		sc[0] += float64(t.Pool.WaitNanos + t.Pool.TimeoutNanos)
		if u := t.Pool.Utilization(); u > sc[1] {
			sc[1] = u
		}
	}
	best, bestScore := s.Tiers[0].Name, *scores[s.Tiers[0].Name]
	for _, t := range s.Tiers[1:] {
		if sc := *scores[t.Name]; scoreLess(bestScore, sc) {
			best, bestScore = t.Name, sc
		}
	}
	return best
}

func scoreLess(a, b [3]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// JSON marshals the snapshot (the /status payload).
func (s *Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only plain data; marshal cannot fail.
		panic("telemetry: marshal: " + err.Error())
	}
	return b
}

// Parse decodes a /status payload.
func Parse(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("telemetry: parse: %w", err)
	}
	return &s, nil
}

// Format renders the per-tier saturation table for reports, one line per
// tier, marking the bottleneck.
func (s *Snapshot) Format() string {
	var b strings.Builder
	bottleneck := s.Bottleneck()
	fmt.Fprintf(&b, "%-10s %9s %9s %8s %12s %8s %10s %9s\n",
		"tier", "requests", "queries", "MB out", "pool", "waits", "waittime", "borrow p95")
	for _, t := range s.Tiers {
		mark := " "
		if t.Name == bottleneck {
			mark = "*"
		}
		mb := "-"
		if t.Bytes > 0 {
			mb = fmt.Sprintf("%.1f", float64(t.Bytes)/(1<<20))
		}
		poolCol, waits, waitTime, p95 := "-", "-", "-", "-"
		if t.Pool != nil {
			poolCol = fmt.Sprintf("%d/%d busy", t.Pool.InUse, t.Pool.Capacity)
			waits = fmt.Sprintf("%d", t.Pool.Waits)
			waitTime = time.Duration(t.Pool.WaitNanos).Round(time.Microsecond).String()
			p95 = fmt.Sprintf("%.2fms", t.Pool.BorrowP95Millis)
		}
		fmt.Fprintf(&b, "%s%-9s %9d %9d %8s %12s %8s %10s %9s\n",
			mark, t.Name, t.Requests, t.Queries, mb, poolCol, waits, waitTime, p95)
	}
	for _, t := range s.Tiers {
		if t.PreparedExecs == 0 && t.TextExecs == 0 && t.PlanHits == 0 && t.PlanMisses == 0 {
			continue
		}
		hitRate := 0.0
		if n := t.PlanHits + t.PlanMisses; n > 0 {
			hitRate = 100 * float64(t.PlanHits) / float64(n)
		}
		fmt.Fprintf(&b, "%s execs: %d prepared / %d text; plan cache: %d hits / %d misses (%.1f%%)\n",
			t.Name, t.PreparedExecs, t.TextExecs, t.PlanHits, t.PlanMisses, hitRate)
	}
	for _, t := range s.Tiers {
		if t.Commits == 0 && t.Aborts == 0 && t.DeadlockTimeouts == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s txns: %d commits (%d read-only) / %d aborts (%d deadlock timeouts, %s waiting on locks)\n",
			t.Name, t.Commits, t.ReadOnlyTxns, t.Aborts, t.DeadlockTimeouts,
			time.Duration(t.TxnLockWaitNanos).Round(time.Microsecond))
	}
	for _, t := range s.Tiers {
		if t.SnapshotReads == 0 && t.SnapshotRefreshes == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s mvcc: %d snapshot reads, %d lock bypasses, %d refreshes\n",
			t.Name, t.SnapshotReads, t.LockBypasses, t.SnapshotRefreshes)
	}
	for _, t := range s.Tiers {
		if t.Broadcasts == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s cluster: %d broadcasts (%.1f acks each)\n",
			t.Name, t.Broadcasts, float64(t.BroadcastAcks)/float64(t.Broadcasts))
	}
	for _, t := range s.Tiers {
		qn := t.QueryCacheHits + t.QueryCacheMisses
		pn := t.PageCacheHits + t.PageCacheMisses
		if qn == 0 && t.QueryCacheBypasses == 0 && pn == 0 && t.PageCacheBypasses == 0 {
			continue
		}
		if qn > 0 || t.QueryCacheBypasses > 0 {
			fmt.Fprintf(&b, "%s query cache: %d hits / %d misses (%.1f%%), %d invalidations, %d txn bypasses\n",
				t.Name, t.QueryCacheHits, t.QueryCacheMisses, hitPct(t.QueryCacheHits, qn),
				t.QueryCacheInvalidations, t.QueryCacheBypasses)
		}
		if pn > 0 || t.PageCacheBypasses > 0 {
			fmt.Fprintf(&b, "%s page cache: %d hits / %d misses (%.1f%%), %d invalidations, %d session bypasses\n",
				t.Name, t.PageCacheHits, t.PageCacheMisses, hitPct(t.PageCacheHits, pn),
				t.PageCacheInvalidations, t.PageCacheBypasses)
		}
	}
	for _, t := range s.Tiers {
		if t.WALAppends == 0 && t.WALRecoveries == 0 && t.WALDeltaSyncs == 0 && t.WALFullSyncs == 0 {
			continue
		}
		perFsync := 0.0
		if t.WALFsyncs > 0 {
			perFsync = float64(t.WALAppends) / float64(t.WALFsyncs)
		}
		fmt.Fprintf(&b, "%s wal: %d appends / %d fsyncs (%.1f per fsync), %.1f MB, %d checkpoints, %d recoveries; rejoins %d delta (%d stmts) / %d full\n",
			t.Name, t.WALAppends, t.WALFsyncs, perFsync, float64(t.WALBytes)/(1<<20),
			t.WALCheckpoints, t.WALRecoveries, t.WALDeltaSyncs, t.WALDeltaStmts, t.WALFullSyncs)
	}
	for _, t := range s.Tiers {
		p := t.Pool
		if p == nil || (p.OpTimeouts == 0 && p.WaitTimeouts == 0) {
			continue
		}
		into := t.Downstream
		if into == "" {
			into = t.Name
		}
		fmt.Fprintf(&b, "%s->%s faults: %d op timeouts (%s lost), %d pool-wait timeouts\n",
			t.Name, into, p.OpTimeouts, time.Duration(p.TimeoutNanos).Round(time.Microsecond), p.WaitTimeouts)
	}
	for _, t := range s.Tiers {
		if t.SlowEjections == 0 && t.DegradedEntries == 0 && t.DegradedRejects == 0 && !t.Degraded {
			continue
		}
		state := "recovered"
		if t.Degraded {
			state = "DEGRADED: read-only"
		}
		fmt.Fprintf(&b, "%s cluster health: %d slow ejections; degraded mode %d entries / %d exits, %d writes fast-failed [%s]\n",
			t.Name, t.SlowEjections, t.DegradedEntries, t.DegradedExits, t.DegradedRejects, state)
	}
	if len(s.AppBackends) > 0 {
		fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %12s %8s\n",
			"backend", "routed", "affinity", "failover", "inflight", "pool", "state")
		for _, a := range s.AppBackends {
			state := "healthy"
			if !a.Healthy {
				state = "ejected"
			}
			poolCol := "-"
			if a.Pool != nil {
				poolCol = fmt.Sprintf("%d/%d busy", a.Pool.InUse, a.Pool.Capacity)
			}
			fmt.Fprintf(&b, "%-10s %9d %9d %9d %9d %12s %8s\n",
				fmt.Sprintf("app[%s]", a.ID), a.Routed, a.Affinity, a.Failovers,
				a.InFlight, poolCol, state)
		}
	}
	if len(s.Replicas) > 0 {
		fmt.Fprintf(&b, "%-10s %9s %9s %9s %10s %12s %8s\n",
			"replica", "reads", "writes", "queries", "lag", "pool", "state")
		for _, r := range s.Replicas {
			state := "healthy"
			if !r.Healthy {
				state = "ejected"
			}
			poolCol := "-"
			if r.Pool != nil {
				poolCol = fmt.Sprintf("%d/%d busy", r.Pool.InUse, r.Pool.Capacity)
			}
			fmt.Fprintf(&b, "db[%d]%-5s %9d %9d %9d %10s %12s %8s\n",
				r.ID, "", r.Reads, r.Writes, r.Queries,
				time.Duration(r.LagNanos).Round(time.Microsecond), poolCol, state)
		}
	}
	verdict := bottleneck
	for _, t := range s.Tiers {
		if t.Pool != nil && t.Downstream == bottleneck && t.Pool.OpTimeouts > 0 {
			verdict += " (timing out)"
			break
		}
	}
	// A hot cache serves most traffic before it reaches the tiers below:
	// the verdict then describes only the post-cache residue, and reading
	// it as the uncached stack's bottleneck would misdiagnose. Annotate
	// whenever any cache served more than it missed.
	for _, t := range s.Tiers {
		if t.QueryCacheHits > t.QueryCacheMisses || t.PageCacheHits > t.PageCacheMisses {
			verdict += " (caches hot: tier load is post-cache)"
			break
		}
	}
	fmt.Fprintf(&b, "bottleneck: %s\n", verdict)
	return b.String()
}

// hitPct is the hit percentage of a hits+misses total (0 when idle).
func hitPct(hits, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(total)
}
