// Package cluster is the replication-aware database client: it fans one
// logical database out over N internal/sqldb wire backends with
// read-one-write-all semantics, the C-JDBC-style clustering middleware the
// paper's authors name as the way past the single-database bottleneck.
//
// Routing policy: reads load-balance across healthy replicas (least
// borrowed connections first, round-robin on ties, using the transport
// pool's counters, skipping replicas whose rejoin sync is still running);
// writes — and every statement of a write transaction — broadcast to every
// healthy replica, serialized per table by a cluster-wide write-order lock
// so all backends apply conflicting writes in one global order. The
// broadcast itself is batched: the statement fans out to all replicas
// concurrently and the acks are awaited together, so a broadcast costs one
// round-trip time instead of N sequential ones. Ordering is unaffected —
// conflicting writes are serialized by the write-order locks held across
// the whole fan-out, so no replica can observe two conflicting statements
// in different orders. That plus identical seeding is what keeps replicas
// bit-identical (AUTO_INCREMENT assignment included) without a
// database-level replication log.
//
// Read-only transactions (BeginReadOnly / WithReadTx) skip the write-order
// locks entirely: they open on the session's pinned replica alone, where
// the engine's MVCC serves their SELECTs from committed snapshots — no
// broadcast, no cluster-wide serialization, no lock-table interaction.
//
// A replica that fails at the transport level is ejected: reads fail over
// transparently, writes continue on the remaining replicas (or error, with
// StrictWrites). An ejected replica rejoins through Rejoin, which replays a
// healthy replica's data over the wire — the same replica-sync path a
// fresh dbserver -peers uses at startup.
package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/telemetry"
)

// ErrNoReplicas is returned when every replica has been ejected.
var ErrNoReplicas = errors.New("cluster: no healthy replicas")

// ErrTxnControlText rejects BEGIN, START TRANSACTION, COMMIT and ROLLBACK
// sent as statement text, before any connection is borrowed: transactions
// are demarcated with Session.Begin/BeginReadOnly/Commit/Rollback (or
// WithTx/WithReadTx), which also take the write-order locks the text
// cannot declare.
var ErrTxnControlText = errors.New("cluster: transaction control sent as a statement; use Begin/Commit/Rollback or WithTx")

// ErrDegraded fast-fails writes while a StrictWrites cluster is degraded:
// one or more replicas are ejected, so no write can satisfy the policy.
// Reads keep flowing off the healthy replicas; the cluster exits degraded
// mode when Rejoin restores the full replica set. Callers can surface it
// as "service read-only" instead of a cascade of per-write errors.
var ErrDegraded = errors.New("cluster: degraded (read-only): strict write policy unsatisfiable until ejected replicas rejoin")

// DefaultSyncTimeout bounds a rejoin's data copy. Syncing a testbed-scale
// data set takes well under a second; half a minute means the source or
// the joiner stalled.
const DefaultSyncTimeout = 30 * time.Second

// Config configures a Client.
type Config struct {
	// DSN is the multi-backend address list: "host:port[,host:port...]".
	// A single address degenerates to a plain pooled client.
	DSN string
	// PoolSize bounds connections per replica (default 12).
	PoolSize int
	// StrictWrites makes a write error when any replica fails mid-broadcast
	// (after completing the broadcast on the remaining healthy replicas, so
	// the survivors stay mutually consistent), and puts the cluster in
	// read-only degraded mode (ErrDegraded) until the replica set is whole
	// again. The default policy is write-all-available: the failed replica
	// is ejected and the write succeeds on the rest.
	StrictWrites bool
	// Timeouts bounds dials, per-operation round trips and pool borrow
	// waits on every replica pool (zero fields: pool-package defaults;
	// negative: unbounded). A stalled replica thus surfaces as a transport
	// error — and is ejected — instead of hanging a broadcast.
	Timeouts pool.Timeouts
	// SlowThreshold ejects a replica whose broadcast ack lags the fastest
	// ack (or whose read exceeds the threshold outright) by more than this
	// — the slow-but-not-stalled replica that drags every write to its
	// speed, since a broadcast completes at the slowest ack. 0 disables
	// latency-based ejection (the default: only transport failures eject).
	SlowThreshold time.Duration
	// SyncTimeout bounds a Rejoin's data copy (0: DefaultSyncTimeout;
	// negative: unbounded). On expiry the replica is left cleanly ejected
	// and marked half-synced rather than promoted.
	SyncTimeout time.Duration
	// QueryCache bounds the client's query-result cache (cache.go): cached
	// SELECT results are served while every referenced table's commit-time
	// version is unchanged. 0 (the default) disables the cache; version
	// publication still runs so other clients' caches — and the page-cache
	// content epoch — stay coherent.
	QueryCache int
	// ShardBy maps table name -> shard-key column for horizontal
	// partitioning (shard.go). Consulted only when DSN names more than one
	// shard group (';'-separated); tables absent from the map are global —
	// replicated on every shard. Names are case-insensitive.
	ShardBy map[string]string
}

// ParseDSN splits a multi-backend DSN into its replica addresses.
func ParseDSN(dsn string) []string {
	var addrs []string
	for _, a := range strings.Split(dsn, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// replica is one backend: its pool, health, and routing counters.
type replica struct {
	id   int
	addr string
	pool *wire.Pool

	healthy   atomic.Bool
	reads     atomic.Int64
	writes    atomic.Int64
	ejections atomic.Int64
	lagNanos  atomic.Int64
}

// Client is the replicated database client. It is safe for concurrent use
// and presents the same surface as a single wire.Pool: Exec/ExecCached for
// pool-routed statements, Get/Put for the logical sessions transactions run
// on, and Prepare for shared statement handles.
type Client struct {
	// sh, when non-nil, makes this client a sharded facade (shard.go):
	// public methods route through the shard set's per-shard inner clients
	// and the flat replica machinery below goes unused.
	sh *shardSet

	replicas []*replica
	rr       atomic.Uint64
	locks    *writeLocks
	routes   routes
	qcache   *queryCache // nil when Config.QueryCache == 0
	strict   bool
	slow     time.Duration // SlowThreshold; 0 = disabled
	syncTO   time.Duration // resolved SyncTimeout; 0 = unbounded
	// topo serializes broadcasts (read side) against Rejoin's resync
	// (write side), so a joining replica never sees a half-applied write.
	topo   sync.RWMutex
	closed atomic.Bool

	// degraded is the strict-policy read-only latch: set when a write
	// fails (or would fail) the strict policy, cleared when Rejoin makes
	// the replica set whole. Writes fast-fail with ErrDegraded while set.
	degraded        atomic.Bool
	degradedEntries atomic.Int64
	degradedExits   atomic.Int64
	degradedRejects atomic.Int64
	slowEjections   atomic.Int64

	// Broadcast batching and read-only transaction counters (telemetry).
	broadcasts    atomic.Int64
	broadcastAcks atomic.Int64
	roTxns        atomic.Int64

	// Rejoin data-copy path counters: how many rejoins the WAL delta fast
	// path served, how many needed the full table copy, and the statements
	// the delta path shipped.
	walDeltaSyncs atomic.Int64
	walFullSyncs  atomic.Int64
	walDeltaStmts atomic.Int64
}

// ClientStats reports the client's broadcast batching and read-only
// transaction counters: Broadcasts is the number of write fan-outs,
// BroadcastAcks the per-replica acknowledgements they collected (acks ÷
// broadcasts = average batch size), ReadOnlyTxns the transactions that ran
// on one replica without any write-order locks.
type ClientStats struct {
	Broadcasts    int64 `json:"broadcasts"`
	BroadcastAcks int64 `json:"broadcast_acks"`
	ReadOnlyTxns  int64 `json:"readonly_txns"`
	// SlowEjections counts replicas ejected for lagging SlowThreshold
	// behind the pack rather than transport-failing. The Degraded* fields
	// track the strict-policy read-only latch: entries/exits count mode
	// flips, rejects counts writes fast-failed with ErrDegraded, and
	// Degraded is the latch's current state.
	SlowEjections   int64 `json:"slow_ejections,omitempty"`
	DegradedEntries int64 `json:"degraded_entries,omitempty"`
	DegradedExits   int64 `json:"degraded_exits,omitempty"`
	DegradedRejects int64 `json:"degraded_rejects,omitempty"`
	Degraded        bool  `json:"degraded,omitempty"`
	// Query-result cache counters (zero when the cache is disabled):
	// hits served from a validated entry, misses that went to a replica,
	// invalidations of entries whose table versions moved, and bypasses —
	// reads forced live because the session's transaction write-held a
	// referenced table.
	QueryCacheHits          int64 `json:"query_cache_hits,omitempty"`
	QueryCacheMisses        int64 `json:"query_cache_misses,omitempty"`
	QueryCacheInvalidations int64 `json:"query_cache_invalidations,omitempty"`
	QueryCacheBypasses      int64 `json:"query_cache_bypasses,omitempty"`
	// Shard routing counters (set only on a sharded client, shard.go):
	// statements pinned to one owning shard, scatter-gather SELECT
	// fan-outs, cross-shard broadcast writes/DDL, and transactions
	// committed via two-phase commit.
	Shards         int   `json:"shards,omitempty"`
	ShardSingle    int64 `json:"shard_single,omitempty"`
	ShardScatter   int64 `json:"shard_scatter,omitempty"`
	ShardBroadcast int64 `json:"shard_broadcast,omitempty"`
	Shard2PCTxns   int64 `json:"shard_2pc_txns,omitempty"`
	// Rejoin data-copy counters: delta syncs served by WAL log shipping
	// (and the statements they replayed) versus full table copies.
	WALDeltaSyncs int64 `json:"wal_delta_syncs,omitempty"`
	WALFullSyncs  int64 `json:"wal_full_syncs,omitempty"`
	WALDeltaStmts int64 `json:"wal_delta_stmts,omitempty"`
}

// ClientStats snapshots the counters. A sharded client sums its inner
// clients' counters and adds the shard routing view.
func (c *Client) ClientStats() ClientStats {
	if c.sh != nil {
		var s ClientStats
		for _, in := range c.sh.shards {
			is := in.ClientStats()
			s.Broadcasts += is.Broadcasts
			s.BroadcastAcks += is.BroadcastAcks
			s.ReadOnlyTxns += is.ReadOnlyTxns
			s.SlowEjections += is.SlowEjections
			s.DegradedEntries += is.DegradedEntries
			s.DegradedExits += is.DegradedExits
			s.DegradedRejects += is.DegradedRejects
			s.Degraded = s.Degraded || is.Degraded
			s.QueryCacheHits += is.QueryCacheHits
			s.QueryCacheMisses += is.QueryCacheMisses
			s.QueryCacheInvalidations += is.QueryCacheInvalidations
			s.QueryCacheBypasses += is.QueryCacheBypasses
			s.WALDeltaSyncs += is.WALDeltaSyncs
			s.WALFullSyncs += is.WALFullSyncs
			s.WALDeltaStmts += is.WALDeltaStmts
		}
		s.Shards = len(c.sh.shards)
		s.ShardSingle = c.sh.single.Load()
		s.ShardScatter = c.sh.scatter.Load()
		s.ShardBroadcast = c.sh.broadcast.Load()
		s.Shard2PCTxns = c.sh.txns2pc.Load()
		return s
	}
	s := ClientStats{
		Broadcasts:      c.broadcasts.Load(),
		BroadcastAcks:   c.broadcastAcks.Load(),
		ReadOnlyTxns:    c.roTxns.Load(),
		SlowEjections:   c.slowEjections.Load(),
		DegradedEntries: c.degradedEntries.Load(),
		DegradedExits:   c.degradedExits.Load(),
		DegradedRejects: c.degradedRejects.Load(),
		Degraded:        c.degraded.Load(),
		WALDeltaSyncs:   c.walDeltaSyncs.Load(),
		WALFullSyncs:    c.walFullSyncs.Load(),
		WALDeltaStmts:   c.walDeltaStmts.Load(),
	}
	if q := c.qcache; q != nil {
		s.QueryCacheHits = q.hits.Load()
		s.QueryCacheMisses = q.misses.Load()
		s.QueryCacheInvalidations = q.invalidations.Load()
		s.QueryCacheBypasses = q.bypasses.Load()
	}
	return s
}

// Degraded reports whether the strict-policy read-only latch is set (on
// any shard, for a sharded client).
func (c *Client) Degraded() bool {
	if c.sh != nil {
		for _, in := range c.sh.shards {
			if in.Degraded() {
				return true
			}
		}
		return false
	}
	return c.degraded.Load()
}

// New creates a client over the DSN's replicas with default policy.
func New(dsn string, poolSize int) *Client {
	return NewWithConfig(Config{DSN: dsn, PoolSize: poolSize})
}

// NewWithConfig creates a client. A DSN naming more than one ';'-separated
// shard group builds a sharded client (shard.go) whose inner per-shard
// clients each get this same configuration over their own replica subset.
func NewWithConfig(cfg Config) *Client {
	if groups := ParseShardDSN(cfg.DSN); len(groups) > 1 {
		return newSharded(cfg, groups)
	}
	addrs := ParseDSN(cfg.DSN)
	if len(addrs) == 0 {
		addrs = []string{""}
	}
	size := cfg.PoolSize
	if size <= 0 {
		size = 12
	}
	syncTO := cfg.SyncTimeout
	if syncTO == 0 {
		syncTO = DefaultSyncTimeout
	} else if syncTO < 0 {
		syncTO = 0
	}
	// Write-order locks are shared with every other client over the same
	// replica set (one per app-tier backend), so conflicting writes apply
	// in one process-wide global order — see lockRegistry.
	c := &Client{
		locks:  acquireWriteLocks(addrs),
		qcache: newQueryCache(cfg.QueryCache),
		strict: cfg.StrictWrites,
		slow:   cfg.SlowThreshold,
		syncTO: syncTO,
	}
	for i, addr := range addrs {
		r := &replica{id: i, addr: addr, pool: wire.NewPoolT(addr, size, cfg.Timeouts)}
		r.healthy.Store(true)
		c.replicas = append(c.replicas, r)
	}
	return c
}

// Replicas returns the number of configured replicas (summed over shards
// on a sharded client).
func (c *Client) Replicas() int {
	if c.sh != nil {
		n := 0
		for _, in := range c.sh.shards {
			n += in.Replicas()
		}
		return n
	}
	return len(c.replicas)
}

// Healthy returns the number of replicas currently accepting traffic.
func (c *Client) Healthy() int {
	if c.sh != nil {
		n := 0
		for _, in := range c.sh.shards {
			n += in.Healthy()
		}
		return n
	}
	n := 0
	for _, r := range c.replicas {
		if r.healthy.Load() {
			n++
		}
	}
	return n
}

// Shards returns the number of shard groups (1 for an unsharded client).
func (c *Client) Shards() int {
	if c.sh != nil {
		return len(c.sh.shards)
	}
	return 1
}

// pickRead selects the read replica: the healthy replica with the fewest
// borrowed connections (the pool's InUse gauge), round-robin on ties.
// Replicas whose rejoin sync is still running are skipped even when marked
// healthy — another client over the same DSN may be mid-copy onto them, and
// a read landing there would see a half-synced data set.
func (c *Client) pickRead() *replica {
	var best *replica
	bestUse := 0
	offset := int(c.rr.Add(1))
	for i := range c.replicas {
		r := c.replicas[(i+offset)%len(c.replicas)]
		if !r.healthy.Load() || c.locks.syncing(r.addr) {
			continue
		}
		use := r.pool.InUse()
		if best == nil || use < bestUse {
			best, bestUse = r, use
		}
	}
	return best
}

// eject marks a replica unhealthy after a transport failure and reports
// whether it did. A single-replica client never ejects: there is nothing
// to fail over to, so it degrades like a plain pool — errors surface and
// the pool re-dials when the server returns. Its pool keeps its
// statistics; Rejoin resets the stale connections.
func (c *Client) eject(r *replica) bool {
	if len(c.replicas) == 1 {
		return false
	}
	if r.healthy.CompareAndSwap(true, false) {
		r.ejections.Add(1)
	}
	return true
}

// ejectSlow ejects a replica for lagging, not failing: its transport still
// answers, but so far behind the pack (or the threshold) that keeping it
// in rotation drags every broadcast — which completes at the slowest ack —
// down to its speed.
func (c *Client) ejectSlow(r *replica) {
	if len(c.replicas) == 1 {
		return
	}
	if r.healthy.CompareAndSwap(true, false) {
		r.ejections.Add(1)
		c.slowEjections.Add(1)
	}
}

// noteSlow applies the latency-based health policy to a finished fan-out:
// any replica whose successful ack trailed the fastest by more than
// SlowThreshold is ejected. Transport failures are handled by collect.
func (c *Client) noteSlow(outs []fanResult) {
	if c.slow <= 0 {
		return
	}
	minDur := time.Duration(-1)
	for i := range outs {
		if outs[i].ran && !isTransport(outs[i].err) && (minDur < 0 || outs[i].dur < minDur) {
			minDur = outs[i].dur
		}
	}
	if minDur < 0 {
		return
	}
	for i := range outs {
		if outs[i].ran && !isTransport(outs[i].err) && outs[i].dur-minDur > c.slow {
			c.ejectSlow(c.replicas[i])
		}
	}
}

// enterDegraded latches the strict-policy read-only mode.
func (c *Client) enterDegraded() {
	if c.strict && len(c.replicas) > 1 && c.degraded.CompareAndSwap(false, true) {
		c.degradedEntries.Add(1)
	}
}

// exitDegradedIfWhole clears the degraded latch once every replica is back
// in the healthy set. It runs on rejoin and as writeGate's self-heal: the
// latch exists to protect a cluster that is missing writes somewhere, so a
// whole replica set must never stay read-only (a stale latch with all
// replicas healthy — e.g. a racing rejoin completing between a broadcast's
// ejection and its enterDegraded — would otherwise wedge writes forever,
// since no replica is left for Rejoin to bring back).
func (c *Client) exitDegradedIfWhole() {
	if c.Healthy() == len(c.replicas) && c.degraded.CompareAndSwap(true, false) {
		c.degradedExits.Add(1)
	}
}

// writeGate fast-fails writes that cannot satisfy the strict policy:
// once any replica is ejected, a strict write is doomed, so it fails with
// ErrDegraded before acquiring locks or touching the wire — reads keep
// flowing off the survivors. A degraded latch outliving the last rejoin
// (every replica healthy again) is stale and self-heals here instead of
// rejecting writes on a whole cluster. Under the default
// write-all-available policy the gate is always open.
func (c *Client) writeGate() error {
	if !c.strict || len(c.replicas) == 1 {
		return nil
	}
	if c.Healthy() == len(c.replicas) {
		c.exitDegradedIfWhole()
		return nil
	}
	c.enterDegraded()
	c.degradedRejects.Add(1)
	return ErrDegraded
}

// isTransport reports whether err is a transport-level failure (as opposed
// to a database-side error, which is deterministic across replicas).
func isTransport(err error) bool {
	return err != nil && !wire.IsServerError(err)
}

// ejectable reports transport failures that implicate the replica itself.
// A pool wait timeout is client-side saturation — every pooled connection
// is busy, which says nothing about the replica's health — so on the read
// path it surfaces as an error without ejecting anybody. Write broadcasts
// override this: whatever the error class, a replica that failed to apply
// a statement the others applied has diverged and is ejected (see
// collect's applied flag).
func ejectable(err error) bool {
	return isTransport(err) && !errors.Is(err, pool.ErrWaitTimeout)
}

// Exec routes one statement as SQL text. See ExecCached for routing.
func (c *Client) Exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return c.exec(query, args, false)
}

// ExecCached routes one statement over the prepared-statement fast path:
// reads run on one load-balanced replica, writes broadcast to all healthy
// replicas in order under the table write-order lock.
func (c *Client) ExecCached(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return c.exec(query, args, true)
}

func (c *Client) exec(query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	if c.sh != nil {
		return c.sh.exec(c, query, args, cached)
	}
	rt := c.routes.of(query)
	if rt.kind == kindTxnControl {
		return nil, ErrTxnControlText
	}
	// One replica: no routing decision exists — skip write ordering and
	// behave like a plain pool. Classification still happens (one memoized
	// map load): reads consult the query cache, and writes publish their
	// table versions so caches and the content epoch stay coherent even on
	// a degenerate single-backend cluster. The read/write counters still
	// tick — a sharded tier of single-replica groups reports its per-shard
	// routing split through them.
	if len(c.replicas) == 1 {
		if rt.kind == kindRead {
			c.replicas[0].reads.Add(1)
			return c.cachedRead(rt, query, args, false, func(restamp func()) (*sqldb.Result, error) {
				return c.poolExecN(c.replicas[0], query, args, cached, func(int) { restamp() })
			})
		}
		c.replicas[0].writes.Add(1)
		res, err := c.poolExec(c.replicas[0], query, args, cached)
		// Publish unless the statement deterministically failed database-side;
		// a transport failure may have applied before the connection died.
		if err == nil || isTransport(err) {
			c.locks.bump(rt.tables)
		}
		return res, err
	}
	if rt.kind == kindRead {
		return c.cachedRead(rt, query, args, false, func(restamp func()) (*sqldb.Result, error) {
			return c.execReadN(query, args, cached, restamp)
		})
	}
	return c.execWrite(query, args, cached, rt)
}

// execRead runs a read on one replica, failing over (and ejecting) on
// transport errors until a healthy replica answers.
func (c *Client) execRead(query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	return c.execReadN(query, args, cached, nil)
}

// execReadN is execRead with a cache restamp hook, fired before every
// attempt: each pool retry (via the wire notify path) and each failover
// replica (readWith re-invokes run, whose first onAttempt is attempt 0).
func (c *Client) execReadN(query string, args []sqldb.Value, cached bool, restamp func()) (*sqldb.Result, error) {
	var onAttempt func(int)
	if restamp != nil {
		onAttempt = func(int) { restamp() }
	}
	return c.readWith(func(r *replica) (*sqldb.Result, error) {
		return c.poolExecN(r, query, args, cached, onAttempt)
	})
}

// readWith runs one read via run on a load-balanced healthy replica,
// ejecting and failing over on transport errors. A pool wait timeout
// surfaces without ejection (the replica is fine; this client is
// saturated), and a read slower than SlowThreshold ejects the replica
// from future routing while still returning its answer.
func (c *Client) readWith(run func(*replica) (*sqldb.Result, error)) (*sqldb.Result, error) {
	for {
		r := c.pickRead()
		if r == nil {
			return nil, ErrNoReplicas
		}
		start := time.Now()
		res, err := run(r)
		if isTransport(err) {
			if ejectable(err) && c.eject(r) {
				continue // fail over to the next healthy replica
			}
			return nil, err
		}
		if c.slow > 0 && time.Since(start) > c.slow {
			c.ejectSlow(r)
		}
		r.reads.Add(1)
		return res, err
	}
}

// execWrite broadcasts a write to every healthy replica in replica order,
// holding the statement's table write-order locks across the broadcast.
func (c *Client) execWrite(query string, args []sqldb.Value, cached bool, rt route) (*sqldb.Result, error) {
	return c.writeWith(rt, func(r *replica) (*sqldb.Result, error) {
		return c.poolExec(r, query, args, cached)
	})
}

// fanResult is one replica's outcome within a batched broadcast.
type fanResult struct {
	res *sqldb.Result
	err error
	dur time.Duration
	ran bool
}

// fanOut runs run once per eligible replica — concurrently when more than
// one is eligible, inline otherwise. This is the batched broadcast: the
// statement ships to every replica at once and the acks are awaited
// together, so the broadcast costs one round-trip time instead of N
// sequential ones. Per-replica ordering of conflicting writes is preserved
// by the write-order locks every caller holds across the whole fan-out.
// Each goroutine writes only its own index of outs, so no synchronization
// beyond the WaitGroup is needed.
func fanOut(replicas []*replica, eligible func(*replica) bool, run func(*replica) (*sqldb.Result, error)) []fanResult {
	outs := make([]fanResult, len(replicas))
	n, last := 0, -1
	for i, r := range replicas {
		if eligible(r) {
			outs[i].ran = true
			n, last = n+1, i
		}
	}
	if n == 1 {
		start := time.Now()
		res, err := run(replicas[last])
		outs[last] = fanResult{res: res, err: err, dur: time.Since(start), ran: true}
		return outs
	}
	var wg sync.WaitGroup
	for i := range replicas {
		if !outs[i].ran {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			res, err := run(replicas[i])
			outs[i] = fanResult{res: res, err: err, dur: time.Since(start), ran: true}
		}(i)
	}
	wg.Wait()
	return outs
}

// bcast accumulates one broadcast's outcome: the canonical answer (the
// lowest-id participating replica's — deterministic regardless of ack
// arrival order), per-replica lag behind the fastest ack, and whether any
// replica transport-failed — the accounting shared by pool-level and
// session-level broadcasts.
type bcast struct {
	res      *sqldb.Result
	first    error
	lastErr  error
	answered bool
	failed   bool
}

// ok records a replica's (server-deterministic) answer. lag is how far this
// replica's ack trailed the broadcast's fastest.
func (b *bcast) ok(r *replica, res *sqldb.Result, err error, countWrite bool, lag time.Duration) {
	if countWrite {
		r.writes.Add(1)
	}
	if !b.answered {
		b.res, b.first, b.answered = res, err, true
	}
	if lag > 0 {
		r.lagNanos.Add(lag.Nanoseconds())
	}
}

// fail records a replica's transport failure.
func (b *bcast) fail(err error) { b.failed, b.lastErr = true, err }

// collect folds a fan-out into the accounting, in replica order: transport
// failures invoke onFail (ejection at pool level, session poisoning at
// session level), everything else is a deterministic database answer.
// onFail's applied flag reports whether some other replica answered this
// fan-out — the consistency signal: a replica that transport-failed while
// the statement applied elsewhere has missed a write and must leave the
// healthy set whatever the error class, or it would keep serving (and
// re-broadcasting from) a diverged data set.
func (b *bcast) collect(outs []fanResult, replicas []*replica, countWrite bool, onFail func(r *replica, err error, applied bool)) {
	minDur := time.Duration(-1)
	for i := range outs {
		if outs[i].ran && !isTransport(outs[i].err) && (minDur < 0 || outs[i].dur < minDur) {
			minDur = outs[i].dur
		}
	}
	applied := minDur >= 0
	for i, o := range outs {
		if !o.ran {
			continue
		}
		r := replicas[i]
		if isTransport(o.err) {
			onFail(r, o.err, applied)
			b.fail(o.err)
			continue
		}
		b.ok(r, o.res, o.err, countWrite, o.dur-minDur)
	}
}

// noteBroadcast counts one fan-out and its successful acknowledgements for
// the batch-size telemetry.
func (c *Client) noteBroadcast(outs []fanResult) {
	n := 0
	for i := range outs {
		if outs[i].ran && !isTransport(outs[i].err) {
			n++
		}
	}
	if n > 0 {
		c.broadcasts.Add(1)
		c.broadcastAcks.Add(int64(n))
	}
}

// result resolves the broadcast under the write policy. The strict-mode
// degraded latch only ever engages here when the broadcast both applied
// somewhere AND failed somewhere — and in that case the failure handlers
// ejected every failed replica (missed-write ejection), so Rejoin always
// has an unhealthy replica to bring back and clear the latch through; an
// all-failed broadcast (nothing applied, replicas still identical) returns
// the transport error without latching.
func (b *bcast) result(c *Client) (*sqldb.Result, error) {
	if !b.answered {
		if b.lastErr != nil {
			return nil, b.lastErr
		}
		return nil, ErrNoReplicas
	}
	if b.failed && c.strict {
		c.enterDegraded()
		return nil, fmt.Errorf("cluster: strict write policy: replica failed mid-broadcast (applied on %d remaining)", c.Healthy())
	}
	return b.res, b.first
}

// writeWith broadcasts run to every healthy replica concurrently under the
// route's table write-order locks (held across the whole fan-out, which is
// what keeps conflicting writes in one global order on every replica).
func (c *Client) writeWith(rt route, run func(*replica) (*sqldb.Result, error)) (*sqldb.Result, error) {
	if err := c.writeGate(); err != nil {
		return nil, err
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
	release := c.locks.acquire(rt.tables)
	defer release()

	outs := fanOut(c.replicas, func(r *replica) bool { return r.healthy.Load() }, run)
	var b bcast
	b.collect(outs, c.replicas, true, func(r *replica, err error, applied bool) {
		// applied: the write landed on another replica, so this one has
		// missed it — eject even on a non-ejectable error (pool wait
		// timeout); only a rejoin sync can make it bit-identical again.
		if applied || ejectable(err) {
			c.eject(r)
		}
	})
	c.noteSlow(outs)
	c.noteBroadcast(outs)
	// Publish the write's table versions (cache invalidation + content
	// epoch) unless it deterministically failed database-side: an answered
	// broadcast with a nil canonical error committed, and an all-transport-
	// failure broadcast may have applied before the connections died —
	// conservative publication can only cost a cache miss, never staleness.
	// Still inside the write-order locks, so the bump lands in write order.
	if b.first == nil && (b.answered || b.failed) {
		c.locks.bump(rt.tables)
	}
	return b.result(c)
}

func (c *Client) poolExec(r *replica, query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	return c.poolExecN(r, query, args, cached, nil)
}

// poolExecN is poolExec with the pool's per-attempt hook threaded through,
// so the cache's version stamp can be re-captured for the attempt that
// actually produces the rows.
func (c *Client) poolExecN(r *replica, query string, args []sqldb.Value, cached bool, onAttempt func(int)) (*sqldb.Result, error) {
	if cached {
		return r.pool.ExecCachedNotify(onAttempt, query, args...)
	}
	return r.pool.ExecNotify(onAttempt, query, args...)
}

// Prepare returns a shared statement handle, with each replica's pool
// statement resolved once up front (no network happens here). Statement
// ids live on the individual wire connections underneath, so a replica's
// fresh or recycled connections transparently re-prepare — including
// after ejection and rejoin.
func (c *Client) Prepare(query string) *Stmt {
	if c.sh != nil {
		// Sharded: routing is per-call (the shard depends on the args), so
		// the handle defers to the shard router; each shard's inner pools
		// still cache the prepared statement by text.
		return &Stmt{c: c, query: query, rt: c.routes.of(query)}
	}
	per := make([]*wire.Stmt, len(c.replicas))
	for i, r := range c.replicas {
		per[i] = r.pool.Prepare(query)
	}
	return &Stmt{c: c, query: query, rt: c.routes.of(query), per: per}
}

// Stmt is a cluster-level prepared statement: the routing decision plus
// one pool statement per replica. Pool statements survive replica churn
// (ids are per-connection state), so the handle never needs refreshing.
type Stmt struct {
	c     *Client
	query string
	rt    route
	per   []*wire.Stmt // by replica id
}

// Query returns the statement's SQL text.
func (s *Stmt) Query() string { return s.query }

// Exec routes the prepared statement like Client.ExecCached, executing
// through the pre-resolved per-replica handles.
func (s *Stmt) Exec(args ...sqldb.Value) (*sqldb.Result, error) {
	if s.rt.kind == kindTxnControl {
		return nil, ErrTxnControlText
	}
	if s.c.sh != nil {
		return s.c.sh.exec(s.c, s.query, args, true)
	}
	if len(s.c.replicas) == 1 {
		if s.rt.kind == kindRead {
			return s.c.cachedRead(s.rt, s.query, args, false, func(restamp func()) (*sqldb.Result, error) {
				return s.per[0].ExecNotify(func(int) { restamp() }, args...)
			})
		}
		res, err := s.per[0].Exec(args...)
		if err == nil || isTransport(err) {
			s.c.locks.bump(s.rt.tables)
		}
		return res, err
	}
	run := func(r *replica) (*sqldb.Result, error) { return s.per[r.id].Exec(args...) }
	if s.rt.kind == kindRead {
		return s.c.cachedRead(s.rt, s.query, args, false, func(restamp func()) (*sqldb.Result, error) {
			return s.c.readWith(func(r *replica) (*sqldb.Result, error) {
				return s.per[r.id].ExecNotify(func(int) { restamp() }, args...)
			})
		})
	}
	return s.c.writeWith(s.rt, run)
}

// Get opens a logical session, the unit a transaction runs on. The session
// pins reads to one load-balanced replica; a write transaction broadcasts
// its every statement to every healthy replica in order.
func (c *Client) Get() (*Session, error) {
	if c.closed.Load() {
		return nil, errors.New("cluster: client closed")
	}
	if c.sh != nil {
		return &Session{c: c, subs: make([]*Session, len(c.sh.shards)), maxSub: -1}, nil
	}
	pinned := c.pickRead()
	if pinned == nil {
		return nil, ErrNoReplicas
	}
	return &Session{
		c:      c,
		pinned: pinned,
		conns:  make([]*wire.Conn, len(c.replicas)),
		broken: make([]bool, len(c.replicas)),
	}, nil
}

// Put returns a session. Pass broken=true when its transaction did not end
// cleanly: every borrowed connection is discarded, so each server rolls the
// transaction back, exactly like discarding a single connection. A session
// returned with its transaction still open is treated the same way.
func (c *Client) Put(s *Session, broken bool) {
	if s == nil {
		return
	}
	s.end(broken)
}

// Session is one logical connection over the cluster — what the
// application borrows around a transaction, demarcated with Begin (or
// BeginReadOnly) and Commit/Rollback. Not safe for concurrent use, like the
// wire connection it replaces.
type Session struct {
	c      *Client
	pinned *replica
	conns  []*wire.Conn // by replica id; nil = not borrowed yet
	broken []bool       // transport-failed connections, discarded at end

	inTxn    bool   // open transaction; broadcast on >1 replica unless readOnly
	readOnly bool   // transaction opened with BeginReadOnly: pinned-only, no locks
	release  func() // the transaction's write-order locks
	topoHeld bool
	failed   bool

	// Query-cache bookkeeping (cache.go). writeSet accumulates the tables
	// this transaction has written — version bumps pending until COMMIT
	// (ROLLBACK discards them: an abort publishes nothing). held is the
	// write set Begin declared up front. A read referencing any table in
	// either set bypasses the cache, keeping read-your-writes on the live
	// path; outside a transaction writes publish immediately.
	writeSet map[string]bool
	held     []string

	// Sharded-coordinator state (shard.go; only when c.sh != nil — the
	// flat fields above go unused). subs holds one lazily-opened
	// sub-session per shard; declared is Begin's write set, replayed into
	// each shard-local BEGIN; allShard marks a transaction opened on every
	// shard; maxSub is the highest shard a lazy write transaction has
	// opened (the ascending-order deadlock discipline).
	subs     []*Session
	declared []string
	allShard bool
	maxSub   int
}

var (
	_ sqldb.Execer = (*Client)(nil)
	_ sqldb.Execer = (*Session)(nil)
)

// conn lazily borrows this session's connection to r.
func (s *Session) conn(r *replica) (*wire.Conn, error) {
	if s.conns[r.id] != nil {
		return s.conns[r.id], nil
	}
	cn, err := r.pool.Get()
	if err != nil {
		return nil, err
	}
	s.conns[r.id] = cn
	return cn, nil
}

// Exec runs one statement on the session as SQL text.
func (s *Session) Exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return s.exec(query, args, false)
}

// ExecCached runs one statement on the session over the prepared path.
func (s *Session) ExecCached(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return s.exec(query, args, true)
}

func (s *Session) exec(query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	if s.c.sh != nil {
		return s.shExec(query, args, cached)
	}
	res, err := s.execDispatch(query, args, cached)
	// A lock-wait-timeout abort rolled the WHOLE transaction back on the
	// replica that reported it, while the others still hold theirs open.
	// The session must not be used further: statements after the abort
	// would auto-commit on the aborted replica but stay transactional on
	// the rest, and a later COMMIT would publish divergent state. Poisoning
	// the session discards every connection, rolling the stragglers back.
	if err != nil && s.inTxn && isTxnAbort(err) {
		s.failed = true
	}
	return res, err
}

// errReadOnlyTxn rejects a mutating statement inside a BeginReadOnly
// transaction before it reaches any replica — the transaction holds no
// write-order locks, so letting the write through would break the global
// write order the replicas depend on.
var errReadOnlyTxn = errors.New("cluster: write in read-only transaction")

// isTxnAbort reports whether a database-side error also aborted the
// server's transaction (the engine's deadlock wait timeout does; ordinary
// statement errors leave the transaction open). Server errors cross the
// wire as text, so the engine's sentinel is matched by message.
func isTxnAbort(err error) bool {
	return wire.IsServerError(err) &&
		strings.Contains(err.Error(), sqldb.ErrLockWaitTimeout.Error())
}

func (s *Session) execDispatch(query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	if s.failed {
		return nil, errors.New("cluster: session failed, discard it")
	}
	rt := s.c.routes.of(query)
	if rt.kind == kindTxnControl {
		return nil, ErrTxnControlText
	}
	if rt.kind == kindRead {
		// Session reads run on the session's own borrowed connection with
		// no retry, so the pre-run stamp is the attempt's stamp.
		return s.c.cachedRead(rt, query, args, s.cacheBypass(rt), func(func()) (*sqldb.Result, error) {
			if len(s.c.replicas) == 1 {
				return s.singleExec(query, args, cached, rt)
			}
			return s.execRead(query, args, cached)
		})
	}
	if s.readOnly {
		return nil, errReadOnlyTxn
	}
	// One replica: the session is an ordinary borrowed connection.
	if len(s.c.replicas) == 1 {
		return s.singleExec(query, args, cached, rt)
	}
	return s.execWrite(query, args, cached, rt)
}

// singleExec runs one statement on a single-replica session's borrowed
// connection, with the cache's version-publication bookkeeping that the
// routing paths handle on a replicated cluster.
func (s *Session) singleExec(query string, args []sqldb.Value, cached bool, rt route) (*sqldb.Result, error) {
	cn, err := s.conn(s.pinned)
	if err != nil {
		s.failed = true
		return nil, err
	}
	res, err := s.connExec(cn, query, args, cached)
	if isTransport(err) {
		s.broken[s.pinned.id] = true
		s.failed = true
		// A non-transactional write may have applied before the connection
		// died: publish conservatively. An open transaction rolls back
		// server-side as the dead connection closes, so its pending bumps
		// are discarded — the abort published nothing.
		if rt.kind == kindWrite && !s.inTxn {
			s.c.locks.bump(rt.tables)
		}
		s.discardWrites()
		return res, err
	}
	if err == nil && rt.kind == kindWrite {
		s.notePublish(rt.tables)
	}
	return res, err
}

// execRead runs a read on the pinned replica's connection. Inside a write
// transaction the pinned replica has applied the same statements as the
// rest, so its answer is canonical.
func (s *Session) execRead(query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	cn, err := s.conn(s.pinned)
	if err != nil {
		s.fail(s.pinned, err)
		return nil, err
	}
	res, err := s.connExec(cn, query, args, cached)
	if isTransport(err) {
		s.fail(s.pinned, err)
		return nil, err
	}
	s.pinned.reads.Add(1)
	return res, err
}

// Begin opens a transaction across the cluster. tables declares the tables
// the transaction intends to write: their cluster-wide write-order locks
// are taken (in sorted order) for the whole transaction, so concurrent
// transactions on disjoint tables proceed in parallel while conflicting
// ones serialize — which is what keeps every replica applying conflicting
// transactions in one global order, aborts included. With no declaration
// the transaction serializes on the catch-all key.
//
// The BEGIN frame is pipelined: it rides to each replica with the
// transaction's first statement, so opening costs no extra round trip. A
// transaction already open is committed first, as the database itself would
// on BEGIN.
func (s *Session) Begin(tables ...string) error {
	if s.c.sh != nil {
		return s.shBegin(false, tables)
	}
	if s.failed {
		return errors.New("cluster: session failed, discard it")
	}
	if s.inTxn {
		if err := s.Commit(); err != nil {
			return err
		}
	}
	ordered := normalize(tables)
	if len(ordered) == 0 {
		ordered = []string{""}
	}
	if len(s.c.replicas) == 1 {
		cn, err := s.conn(s.pinned)
		if err != nil {
			s.failed = true
			return err
		}
		// The declared write set serializes here too: the engine only
		// write-locks a table at the transaction's first write to it, so
		// without this two read-modify-write transactions could both read
		// before either writes — a lost update.
		s.release = s.c.locks.acquire(ordered)
		if err := cn.Begin(); err != nil {
			s.broken[s.pinned.id] = true
			s.failed = true
			s.closeTxn()
			return err
		}
		s.inTxn = true
		s.held = ordered
		return nil
	}
	// A write transaction that cannot satisfy the strict policy fails at
	// BEGIN, before any replica opens transaction state.
	if err := s.c.writeGate(); err != nil {
		return err
	}
	s.c.topo.RLock()
	s.topoHeld = true
	s.release = s.c.locks.acquire(ordered)
	opened := 0
	for _, r := range s.c.replicas {
		if s.broken[r.id] || !r.healthy.Load() {
			continue
		}
		cn, err := s.conn(r)
		if err != nil {
			s.fail(r, err)
			continue
		}
		if err := cn.Begin(); err != nil {
			s.fail(r, err)
			continue
		}
		opened++
	}
	if opened == 0 {
		s.failed = true
		s.closeTxn()
		return ErrNoReplicas
	}
	s.inTxn = true
	s.held = ordered
	return nil
}

// BeginReadOnly opens a read-only transaction on the pinned replica alone.
// Because the engine serves its reads from MVCC snapshots and a read-only
// transaction writes nothing, the replication machinery has nothing to
// order: no cluster-wide write-order locks are taken, no topology hold, no
// broadcast — the transaction costs exactly what it would against a single
// unreplicated database. Writes inside it are rejected client-side before
// touching the wire. A transaction already open is committed first, as
// Begin does.
func (s *Session) BeginReadOnly() error {
	if s.c.sh != nil {
		return s.shBegin(true, nil)
	}
	if s.failed {
		return errors.New("cluster: session failed, discard it")
	}
	if s.inTxn {
		if err := s.Commit(); err != nil {
			return err
		}
	}
	cn, err := s.conn(s.pinned)
	if err != nil {
		s.failed = true
		return err
	}
	if err := cn.Begin(); err != nil {
		s.fail(s.pinned, err)
		s.failed = true
		return err
	}
	s.inTxn, s.readOnly = true, true
	s.c.roTxns.Add(1)
	return nil
}

// Commit commits the open transaction on every replica it was opened on
// and releases its write-order locks. Without an open transaction it is a
// no-op, like the database's own COMMIT. On a sharded session with more
// than one participating shard this runs two-phase commit (shard.go).
func (s *Session) Commit() error {
	if s.c.sh != nil {
		return s.shCommit()
	}
	return s.endTxn((*wire.Conn).Commit, true)
}

// Rollback rolls the open transaction back everywhere. The database's undo
// logs restore each replica to its pre-transaction state, so the replicas
// stay bit-identical across the abort.
func (s *Session) Rollback() error {
	if s.c.sh != nil {
		return s.shRollback()
	}
	return s.endTxn((*wire.Conn).Rollback, false)
}

// endTxn runs op (COMMIT or ROLLBACK) on every connection participating in
// the transaction — concurrently, like the statement broadcasts; the
// write-order locks are still held until closeTxn below, so the commit
// itself stays inside the transaction's serialized window.
func (s *Session) endTxn(op func(*wire.Conn) error, commit bool) error {
	if !s.inTxn {
		return nil
	}
	defer func() {
		// Version publication resolves with the transaction: a COMMIT
		// flushes the pending table bumps — even a transport-failed one,
		// which may have committed server-side before the connection died —
		// and a ROLLBACK discards them, because an abort was never visible
		// to any read and must invalidate nothing.
		if commit {
			s.flushWrites()
		} else {
			s.discardWrites()
		}
		s.inTxn = false
		s.closeTxn()
	}()
	outs := fanOut(s.c.replicas, func(r *replica) bool {
		return s.conns[r.id] != nil && !s.broken[r.id]
	}, func(r *replica) (*sqldb.Result, error) {
		return nil, op(s.conns[r.id])
	})
	var lastErr error
	done := 0
	for _, o := range outs {
		if o.ran && o.err == nil {
			done++
		}
	}
	failedTransport := false
	for i, o := range outs {
		if !o.ran || o.err == nil {
			continue
		}
		lastErr = o.err
		if isTransport(o.err) {
			failedTransport = true
			r := s.c.replicas[i]
			s.fail(r, o.err)
			if done > 0 && r.healthy.Load() {
				// The server rolled this replica's transaction back when its
				// connection died, while others committed it: the replica has
				// diverged, so eject it whatever the error class.
				s.c.eject(r)
			}
		}
	}
	if done == 0 {
		s.failed = true
		if lastErr != nil {
			return lastErr
		}
		return ErrNoReplicas
	}
	if lastErr != nil && s.c.strict {
		// Latch degraded only for a transport failure, which the loop above
		// turned into an ejection — so a Rejoin exists to clear the latch. A
		// database-side error deterministically hit every replica alike and
		// must not leave a whole healthy cluster read-only.
		if failedTransport {
			s.c.enterDegraded()
		}
		return fmt.Errorf("cluster: strict write policy: replica failed mid-transaction-end (applied on %d): %w", done, lastErr)
	}
	return nil
}

// execWrite broadcasts a write. Inside a transaction the tables are already
// serialized by the locks Begin took; outside, the statement takes its own.
func (s *Session) execWrite(query string, args []sqldb.Value, cached bool, rt route) (*sqldb.Result, error) {
	if !s.inTxn {
		if err := s.c.writeGate(); err != nil {
			return nil, err
		}
		s.c.topo.RLock()
		release := s.c.locks.acquire(rt.tables)
		defer func() { release(); s.c.topo.RUnlock() }()
	}
	res, err := s.broadcast(query, args, cached, true)
	// Publish unless the failure was deterministic database-side: a
	// transport-failed broadcast may have applied on some replica.
	if err == nil || !wire.IsServerError(err) {
		s.notePublish(rt.tables)
	}
	return res, err
}

// broadcast sends one statement to every participating replica over the
// session's connections — concurrently, like the pool-level fan-out; the
// caller (or the session's transaction) holds the write-order locks that
// keep conflicting broadcasts ordered. Transport failures eject the replica
// and — under the default policy — the broadcast continues; the lowest-id
// participating replica's answer is canonical.
func (s *Session) broadcast(query string, args []sqldb.Value, cached, countWrite bool) (*sqldb.Result, error) {
	var b bcast
	// Borrow connections first: session state is single-owner, so the
	// borrowing stays sequential and only the round trips parallelize.
	for _, r := range s.c.replicas {
		if s.broken[r.id] || s.conns[r.id] != nil || !r.healthy.Load() {
			continue
		}
		if _, err := s.conn(r); err != nil {
			s.fail(r, err)
			b.fail(err)
		}
	}
	outs := fanOut(s.c.replicas, func(r *replica) bool {
		return s.conns[r.id] != nil && !s.broken[r.id]
	}, func(r *replica) (*sqldb.Result, error) {
		return s.connExec(s.conns[r.id], query, args, cached)
	})
	b.collect(outs, s.c.replicas, countWrite, func(r *replica, err error, _ bool) { s.fail(r, err) })
	if countWrite && b.answered {
		// The write landed somewhere, so every replica this session could
		// not reach — a failed borrow above, a connection broken earlier in
		// the transaction, or this fan-out's failure — has missed it and
		// diverged: eject it regardless of why the connection broke (even
		// pool saturation), leaving the rejoin sync as the only way back.
		for _, r := range s.c.replicas {
			if s.broken[r.id] && r.healthy.Load() {
				s.c.eject(r)
			}
		}
	}
	s.c.noteBroadcast(outs)
	res, err := b.result(s.c)
	// A database-side error in `err` is deterministic and leaves the
	// session usable; only an unanswered or strict-failed broadcast
	// poisons it.
	if !b.answered || (b.failed && s.c.strict) {
		s.failed = true
		return nil, err
	}
	// The session must keep reading from a replica inside the transaction.
	if !s.pinned.healthy.Load() {
		for _, r := range s.c.replicas {
			if r.healthy.Load() && s.conns[r.id] != nil && !s.broken[r.id] {
				s.pinned = r
				break
			}
		}
	}
	return res, err
}

func (s *Session) connExec(cn *wire.Conn, query string, args []sqldb.Value, cached bool) (*sqldb.Result, error) {
	if cached {
		return cn.ExecCached(query, args...)
	}
	return cn.Exec(query, args...)
}

// fail poisons the session's connection to r and — when err implicates
// the replica rather than this client's own saturation (see ejectable) —
// ejects r.
func (s *Session) fail(r *replica, err error) {
	s.broken[r.id] = true
	if ejectable(err) {
		s.c.eject(r)
	}
}

// closeTxn releases what the session's transaction held cluster-side: the
// write-order locks, the topology hold and the cache's write-set state.
func (s *Session) closeTxn() {
	if s.inTxn {
		// Still open: the session was abandoned and end discards its
		// connections, so every server rolls back. Publishing the pending
		// writes anyway is the conservative side — a spurious bump only
		// costs cache misses, never correctness.
		s.flushWrites()
	}
	s.held = nil
	if s.release != nil {
		s.release()
		s.release = nil
	}
	if s.topoHeld {
		s.c.topo.RUnlock()
		s.topoHeld = false
	}
	s.inTxn, s.readOnly = false, false
}

// end returns every borrowed connection and releases transaction state. A
// session abandoned with its transaction still open discards every
// connection: each server session rolls the transaction back as its
// connection closes, so no pooled connection ever carries open transaction
// state to its next borrower.
func (s *Session) end(broken bool) {
	if s.c.sh != nil {
		s.shEnd(broken)
		return
	}
	broken = broken || s.inTxn
	s.closeTxn()
	for i, cn := range s.conns {
		if cn == nil {
			continue
		}
		s.c.replicas[i].pool.Put(cn, broken || s.failed || s.broken[i])
		s.conns[i] = nil
	}
}

// WithTx runs fn inside one database transaction: a session is borrowed, a
// transaction declaring the given write tables is opened on it, and fn's
// outcome decides the verdict — nil commits, an error (or a panic, which is
// re-raised after cleanup) rolls back, restoring every replica to its
// pre-transaction state. This is the short transaction the application hot
// paths run their critical sections in, and the demarcation primitive the
// EJB container wraps business methods in.
func (c *Client) WithTx(tables []string, fn func(tx *Session) error) error {
	return c.withTx(func(s *Session) error { return s.Begin(tables...) }, fn)
}

// WithReadTx runs fn inside a read-only transaction (BeginReadOnly): every
// SELECT in fn is served from an MVCC snapshot on one pinned replica, with
// no cluster-wide write-order locks and no broadcast traffic. This is the
// demarcation for read-only business methods — the replication "correctness
// tax" drops out of their path entirely. fn's writes fail deterministically;
// its error (or panic, re-raised after cleanup) rolls the transaction back,
// nil commits it.
func (c *Client) WithReadTx(fn func(tx *Session) error) error {
	return c.withTx((*Session).BeginReadOnly, fn)
}

// withTx borrows a session, opens a transaction on it with begin, runs fn
// and commits or rolls back on its outcome.
func (c *Client) withTx(begin func(*Session) error, fn func(tx *Session) error) (err error) {
	s, err := c.Get()
	if err != nil {
		return err
	}
	broken := false
	committed := false
	defer func() {
		if r := recover(); r != nil {
			s.Rollback() // best effort; end() discards the conns regardless
			c.Put(s, true)
			panic(r)
		}
		if !committed && s.inTxn {
			if rbErr := s.Rollback(); rbErr != nil {
				broken = true
			}
		}
		c.Put(s, broken)
	}()
	if err := begin(s); err != nil {
		broken = true
		return err
	}
	if err := fn(s); err != nil {
		return err
	}
	if err := s.Commit(); err != nil {
		broken = true
		return err
	}
	committed = true
	return nil
}

// Rejoin brings an ejected replica back: its stale pooled connections are
// dropped and, with sync true, a healthy replica's data is replayed onto
// it first (the replica-sync path). Rejoin blocks new broadcasts until the
// copy completes, so the joiner comes back consistent.
func (c *Client) Rejoin(id int, syncData bool) error {
	if c.sh != nil {
		// Global replica ids number shard 0's replicas first, then shard
		// 1's, and so on — the same order ReplicaStats reports.
		rest := id
		for _, in := range c.sh.shards {
			if rest < len(in.replicas) {
				return in.Rejoin(rest, syncData)
			}
			rest -= len(in.replicas)
		}
		return fmt.Errorf("cluster: no replica %d", id)
	}
	if id < 0 || id >= len(c.replicas) {
		return fmt.Errorf("cluster: no replica %d", id)
	}
	r := c.replicas[id]
	if r.healthy.Load() {
		// Nothing to bring back — but an operator calling Rejoin on an
		// already-whole cluster is an explicit recovery action, so clear a
		// stale degraded latch rather than leaving it with no exit path.
		c.exitDegradedIfWhole()
		return nil
	}
	c.topo.Lock()
	defer c.topo.Unlock()
	r.pool.Reset()
	if syncData {
		src := c.pickRead()
		if src == nil {
			return ErrNoReplicas
		}
		// Mark the joiner as mid-sync in the shared (per-DSN) registry: this
		// client's reads already skip it via the healthy flag, but OTHER
		// clients over the same backends — which never ejected it and still
		// see it healthy — must not route reads to a half-copied data set.
		c.locks.beginSync(r.addr)
		st, err := SyncAuto(src.pool, r.pool, c.syncTO)
		c.locks.endSync(r.addr, err == nil)
		if err == nil {
			if st.Delta {
				c.walDeltaSyncs.Add(1)
				c.walDeltaStmts.Add(int64(st.Stmts))
			} else {
				c.walFullSyncs.Add(1)
			}
		}
		if err != nil {
			// The replica stays cleanly ejected: healthy stays false for
			// this client, and the sync taint keeps every other client's
			// reads away from the half-copied data set until a later
			// Rejoin completes.
			return fmt.Errorf("cluster: sync replica %d from %d: %w", id, src.id, err)
		}
	}
	r.healthy.Store(true)
	c.exitDegradedIfWhole()
	return nil
}

// Stats aggregates the per-replica pools into one pool.Stats — the single
// "connections into the database tier" figure the cross-tier bottleneck
// heuristic consumes. Counters sum; latency figures take the worst replica.
func (c *Client) Stats() pool.Stats {
	if c.sh != nil {
		pools := make([]pool.Stats, len(c.sh.shards))
		for i, in := range c.sh.shards {
			pools[i] = in.Stats()
		}
		return pool.Sum("db-shards", pools)
	}
	pools := make([]pool.Stats, len(c.replicas))
	for i, r := range c.replicas {
		pools[i] = r.pool.Stats()
	}
	name := "db-cluster"
	if len(c.replicas) == 1 {
		name = "db@" + c.replicas[0].addr
	}
	return pool.Sum(name, pools)
}

// ReplicaStats reports the per-replica routing view for telemetry. On a
// sharded client the replicas of every shard are concatenated in shard
// order with globally renumbered ids (matching Rejoin's addressing) and
// each entry's Shard field set.
func (c *Client) ReplicaStats() []telemetry.Replica {
	if c.sh != nil {
		var out []telemetry.Replica
		for si, in := range c.sh.shards {
			for _, rs := range in.ReplicaStats() {
				rs.ID = len(out)
				rs.Shard = si
				out = append(out, rs)
			}
		}
		return out
	}
	out := make([]telemetry.Replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		ps := r.pool.Stats()
		out = append(out, telemetry.Replica{
			ID:        r.id,
			Addr:      r.addr,
			Healthy:   r.healthy.Load(),
			Reads:     r.reads.Load(),
			Writes:    r.writes.Load(),
			Ejections: r.ejections.Load(),
			LagNanos:  r.lagNanos.Load(),
			Pool:      &ps,
		})
	}
	return out
}

// Close closes every replica pool and releases the client's slot in the
// shared write-order lock registry.
func (c *Client) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	if c.sh != nil {
		for _, in := range c.sh.shards {
			in.Close()
		}
		releaseWriteLocks(c.sh.addrs)
		return
	}
	for _, r := range c.replicas {
		r.pool.Close()
	}
	addrs := make([]string, len(c.replicas))
	for i, r := range c.replicas {
		addrs[i] = r.addr
	}
	releaseWriteLocks(addrs)
}
