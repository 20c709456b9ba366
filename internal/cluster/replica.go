package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lru"
	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/telemetry"
)

// replica is one backend: its pool, health, and routing counters.
type replica struct {
	id   int
	addr string
	pool *wire.Pool

	healthy atomic.Bool
	replicaCells
}

// replicaCells is a replica's routing counter cells, each named after the
// telemetry.ReplicaRouting field it fills (telemetry.Load).
type replicaCells struct {
	Reads, Writes, Ejections, LagNanos atomic.Int64
}

// replicaSet is one read-one-write-all replication group: one shard group of
// a Client, the only one when the DSN names no shards. A statement takes one
// of two paths through it, chosen by whether a transaction is open — exec
// (auto-commit) or replicaTxn.exec (transactional) — and by nothing else: a
// single backend is a group of one, running the same code.
type replicaSet struct {
	replicas []*replica
	rr       atomic.Uint64
	locks    *writeLocks
	routes   *routes                // the Client's plan memo, shared by every shard
	qcache   *lru.Cache[cacheEntry] // nil when Config.QueryCache == 0
	slow     time.Duration          // SlowThreshold; 0 = disabled
	syncTO   time.Duration          // resolved SyncTimeout; 0 = unbounded

	// The counter cells. The query cache's LRU counts its hits, misses and
	// invalidations; QueryCacheBypasses counts the reads a transaction kept
	// off it (replicaTxn.cacheBypass), WALFullSyncs the rejoins whose data
	// copy completed.
	counters
}

func newReplicaSet(cfg Config, addrs []string, rt *routes) *replicaSet {
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
	rs := &replicaSet{
		locks:  acquireWriteLocks(addrs),
		routes: rt,
		slow:   cfg.SlowThreshold,
		syncTO: syncTO,
	}
	if cfg.QueryCache > 0 {
		rs.qcache = lru.New[cacheEntry](cfg.QueryCache, lru.Counters{
			Hits: &rs.QueryCacheHits, Misses: &rs.QueryCacheMisses, Invalidations: &rs.QueryCacheInvalidations})
	}
	for i, addr := range addrs {
		r := &replica{id: i, addr: addr, pool: wire.NewPoolT(addr, size, cfg.Timeouts)}
		r.healthy.Store(true)
		rs.replicas = append(rs.replicas, r)
	}
	return rs
}

func (rs *replicaSet) ClientStats() ClientStats {
	var s ClientStats
	telemetry.Load(&s, &rs.counters)
	return s
}

// pickRead selects the read replica: the healthy replica with the fewest
// borrowed connections (the pool's InUse gauge), round-robin on ties.
// Replicas whose rejoin sync is still running are skipped even when marked
// healthy — another client over the same DSN may be mid-copy onto them, and
// a read landing there would see a half-synced data set.
func (rs *replicaSet) pickRead() *replica {
	var best *replica
	bestUse := 0
	offset := int(rs.rr.Add(1))
	for i := range rs.replicas {
		r := rs.replicas[(i+offset)%len(rs.replicas)]
		if !r.healthy.Load() || rs.locks.syncing(r.addr) {
			continue
		}
		use := r.pool.InUse()
		if best == nil || use < bestUse {
			best, bestUse = r, use
		}
	}
	return best
}

// unreplicated reports a set of one backend. It runs the same two statement
// paths as any other set; what the count decides is policy, stated where
// this is called: a set of one never ejects, counts no broadcast, and names
// its pool after the backend.
func (rs *replicaSet) unreplicated() bool { return len(rs.replicas) == 1 }

// eject marks a replica unhealthy after a transport failure and reports
// whether it did. A set of one never ejects: there is nothing to fail over
// to, so errors surface and the pool re-dials when the server returns.
func (rs *replicaSet) eject(r *replica) bool {
	if rs.unreplicated() {
		return false
	}
	if r.healthy.CompareAndSwap(true, false) {
		r.Ejections.Add(1)
	}
	return true
}

// ejectSlow ejects a replica for lagging, not failing: its transport still
// answers, but so far behind the pack (or the threshold) that keeping it
// in rotation drags every broadcast — which completes at the slowest ack —
// down to its speed.
func (rs *replicaSet) ejectSlow(r *replica) {
	if !rs.unreplicated() && r.healthy.CompareAndSwap(true, false) {
		r.Ejections.Add(1)
		rs.SlowEjections.Add(1)
	}
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

// exec is the auto-commit path, one of the set's two (replicaTxn.exec is
// the other): a read runs on one load-balanced replica with failover, a
// write broadcasts under its tables' write-order locks.
func (rs *replicaSet) exec(rt *route, query string, args []sqldb.Value) (*sqldb.Result, error) {
	if rt.err != nil {
		return nil, rt.err
	}
	if !rt.write {
		return rs.cachedRead(rt, query, args, false, func() (*sqldb.Result, error) {
			return rs.readWith(query, args)
		})
	}
	return rs.writeWith(rt, query, args)
}

// readWith runs one read on a load-balanced healthy replica's pool,
// ejecting and failing over on transport errors. A pool wait timeout
// surfaces without ejection (the replica is fine; this client is
// saturated), and a read slower than SlowThreshold ejects the replica from
// future routing while still returning its answer.
func (rs *replicaSet) readWith(query string, args []sqldb.Value) (*sqldb.Result, error) {
	for {
		r := rs.pickRead()
		if r == nil {
			return nil, ErrNoReplicas
		}
		start := time.Now()
		res, err := r.pool.Exec(query, args...)
		if isTransport(err) {
			if ejectable(err) && rs.eject(r) {
				continue // fail over to the next healthy replica
			}
			return nil, err
		}
		if rs.slow > 0 && time.Since(start) > rs.slow {
			rs.ejectSlow(r)
		}
		r.Reads.Add(1)
		return res, err
	}
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
// arrival order) and whether any replica transport-failed — the accounting
// shared by auto-commit and transactional broadcasts.
type bcast struct {
	res      *sqldb.Result
	first    error
	lastErr  error
	answered bool
	failed   bool
}

// fail records a replica's transport failure.
func (b *bcast) fail(err error) { b.failed, b.lastErr = true, err }

// collect folds a fan-out over rs into the accounting, in replica order:
// transport failures invoke onFail (ejection on the auto-commit path,
// dropping the replica from the transaction on the other), everything else
// is a deterministic database answer. onFail's applied flag reports whether
// some other replica answered this fan-out — the consistency signal: a
// replica that transport-failed while the statement applied elsewhere has
// missed a write and must leave the healthy set whatever the error class,
// or it would keep serving (and re-broadcasting from) a diverged data set.
// What holds for every broadcast is done here and nowhere else: the
// batch-size telemetry, per-replica lag behind the fastest ack, and the
// latency-based health policy — an ack trailing the fastest by more than
// SlowThreshold ejects its replica.
func (b *bcast) collect(rs *replicaSet, outs []fanResult, onFail func(r *replica, err error, applied bool)) {
	minDur := time.Duration(-1)
	acks := 0
	for i := range outs {
		if outs[i].ran && !isTransport(outs[i].err) {
			acks++
			if minDur < 0 || outs[i].dur < minDur {
				minDur = outs[i].dur
			}
		}
	}
	applied := acks > 0
	// A set of one counts none: its fan-out is one round trip, no broadcast.
	if applied && !rs.unreplicated() {
		rs.Broadcasts.Add(1)
		rs.BroadcastAcks.Add(int64(acks))
	}
	for i, o := range outs {
		if !o.ran {
			continue
		}
		r := rs.replicas[i]
		if isTransport(o.err) {
			onFail(r, o.err, applied)
			b.fail(o.err)
			continue
		}
		r.Writes.Add(1)
		if !b.answered {
			b.res, b.first, b.answered = o.res, o.err, true
		}
		if lag := o.dur - minDur; lag > 0 {
			r.LagNanos.Add(lag.Nanoseconds())
			if rs.slow > 0 && lag > rs.slow {
				rs.ejectSlow(r)
			}
		}
	}
}

// result resolves the broadcast under the write-all-available policy: a
// broadcast that applied anywhere returns the canonical answer (the failure
// handlers have already ejected every replica that missed it), and an
// all-failed one (nothing applied, replicas still identical) returns the
// transport error.
func (b *bcast) result() (*sqldb.Result, error) {
	if !b.answered {
		if b.lastErr != nil {
			return nil, b.lastErr
		}
		return nil, ErrNoReplicas
	}
	return b.res, b.first
}

// writeWith broadcasts one write to every healthy replica's pool
// concurrently under the route's table write-order locks (held across the
// whole fan-out, which is what keeps conflicting writes in one global order
// on every replica).
//
// It stays apart from replicaTxn.broadcast, with which it shares fanOut
// and collect, because of how long a connection is held: each replica's
// pooled connection goes back at that replica's own ack, while a
// session holds every replica's connection until the slowest ack — one slow
// replica would keep the fast replicas' pools exhausted too
// (TestMissedWriteOnSaturatedPoolEjects).
func (rs *replicaSet) writeWith(rt *route, query string, args []sqldb.Value) (*sqldb.Result, error) {
	release := rs.locks.acquire(rt.tables)
	defer release()

	outs := fanOut(rs.replicas, func(r *replica) bool { return r.healthy.Load() },
		func(r *replica) (*sqldb.Result, error) { return r.pool.Exec(query, args...) })
	var b bcast
	b.collect(rs, outs, func(r *replica, err error, applied bool) {
		// applied: the write landed on another replica, so this one has
		// missed it — eject even on a non-ejectable error (pool wait
		// timeout); only a rejoin sync can make it bit-identical again.
		if applied || ejectable(err) {
			rs.eject(r)
		}
	})
	// Publish the write's table versions (cache invalidation + content
	// epoch) unless it deterministically failed database-side: an answered
	// broadcast with a nil canonical error committed, and an all-transport-
	// failure broadcast may have applied before the connections died —
	// conservative publication can only cost a cache miss, never staleness.
	// Still inside the write-order locks, so the bump lands in write order.
	if b.first == nil && (b.answered || b.failed) {
		rs.locks.bump(rt.tables)
	}
	return b.result()
}

// open starts a shard coordinator's sub-session on the set, pinned to a
// load-balanced read replica; it borrows nothing until begin.
func (rs *replicaSet) open() (*replicaTxn, error) {
	pinned := rs.pickRead()
	if pinned == nil {
		return nil, ErrNoReplicas
	}
	return &replicaTxn{
		rs:     rs,
		pinned: pinned,
		conns:  make([]*wire.Conn, len(rs.replicas)),
		broken: make([]bool, len(rs.replicas)),
	}, nil
}

// replicaTxn is a shard coordinator's sub-session over one replica set. The
// coordinator reaches it only inside a transaction; between transactions it
// holds nothing, and an open transaction holds a connection to every
// participating replica and the write-order locks, from begin to closeTxn.
type replicaTxn struct {
	rs     *replicaSet
	pinned *replica
	conns  []*wire.Conn // by replica id; nil = not in the transaction
	broken []bool       // dropped from the transaction; connection discarded at its end

	inTxn   bool   // open transaction; its writes broadcast
	release func() // the transaction's write-order locks
	failed  bool

	// Query-cache bookkeeping (cache.go). writeSet accumulates the tables
	// this transaction has written — version bumps pending until COMMIT
	// (ROLLBACK discards them: an abort publishes nothing). held is the
	// write set begin declared up front. A read referencing any table in
	// either set bypasses the cache, keeping read-your-writes on the live
	// path.
	writeSet map[string]bool
	held     []string
}

// exec is the transactional path, the set's other one (see
// replicaSet.exec): reads on the pinned replica's connection, writes
// broadcast on every connection the transaction holds.
func (s *replicaTxn) exec(rt *route, query string, args []sqldb.Value) (res *sqldb.Result, err error) {
	switch {
	case s.failed:
		return nil, errSessionFailed
	case rt.err != nil:
		return nil, rt.err
	case !rt.write:
		res, err = s.rs.cachedRead(rt, query, args, s.cacheBypass(rt), func() (*sqldb.Result, error) {
			return s.execRead(query, args)
		})
	default:
		res, err = s.execWrite(query, args, rt)
	}
	// A lock-wait-timeout abort rolled the WHOLE transaction back on the
	// replica that reported it, while the others still hold theirs open.
	// The session must not be used further: statements after the abort
	// would auto-commit on the aborted replica but stay transactional on
	// the rest, and a later COMMIT would publish divergent state. Poisoning
	// the session discards every connection, rolling the stragglers back.
	if err != nil && isTxnAbort(err) {
		s.failed = true
	}
	return res, err
}

// isTxnAbort reports whether a database-side error also aborted the
// server's transaction (the engine's deadlock wait timeout does; ordinary
// statement errors leave the transaction open). Server errors cross the
// wire as text, so the engine's sentinel is matched by message.
func isTxnAbort(err error) bool {
	return wire.IsServerError(err) &&
		strings.Contains(err.Error(), sqldb.ErrLockWaitTimeout.Error())
}

// execRead runs a read on the pinned replica's connection. Inside a write
// transaction the pinned replica has applied the same statements as the
// rest, so its answer is canonical. A transport failure poisons the
// session: that server rolled its side of the transaction back as the
// connection died, and the next statement must not write into it.
func (s *replicaTxn) execRead(query string, args []sqldb.Value) (*sqldb.Result, error) {
	res, err := s.conns[s.pinned.id].Exec(query, args...)
	if isTransport(err) {
		s.fail(s.pinned, err)
		s.failed = true
		return nil, err
	}
	s.pinned.Reads.Add(1)
	return res, err
}

// join borrows the transaction's connection to r and opens it there.
func (s *replicaTxn) join(r *replica) error {
	cn, err := r.pool.Get()
	if err == nil {
		s.conns[r.id] = cn
		err = cn.Begin()
	}
	if err != nil {
		s.fail(r, err)
	}
	return err
}

func (s *replicaTxn) begin(ordered []string) error {
	if len(ordered) == 0 {
		ordered = catchAll
	}
	// The declared write set serializes the whole transaction, reads
	// included, whatever the replica count: the engine only write-locks a
	// table at the transaction's first write to it, so without this two
	// read-modify-write transactions could both read before either writes —
	// a lost update.
	s.release = s.rs.locks.acquire(ordered)
	var lastErr error
	opened := 0
	for _, r := range s.rs.replicas {
		if !r.healthy.Load() {
			continue
		}
		if err := s.join(r); err != nil {
			lastErr = err
			continue
		}
		opened++
	}
	if opened == 0 {
		s.failed = true
		s.closeTxn(true)
		if lastErr != nil {
			return lastErr
		}
		return ErrNoReplicas
	}
	s.inTxn, s.held = true, ordered
	s.repin()
	return nil
}

func (s *replicaTxn) Commit() error { return s.endTxn((*wire.Conn).Commit, true) }

func (s *replicaTxn) Rollback() error { return s.endTxn((*wire.Conn).Rollback, false) }

// endTxn runs op (COMMIT or ROLLBACK) on every connection participating in
// the transaction — concurrently, like the statement broadcasts; the
// write-order locks are still held until closeTxn below, so the commit
// itself stays inside the transaction's serialized window. A session with
// no transaction open, or none at all (a shard the coordinator's
// transaction never reached), ends nothing.
func (s *replicaTxn) endTxn(op func(*wire.Conn) error, commit bool) (err error) {
	if !s.open() {
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
		// An end that failed anywhere discards every connection — what the
		// callers' Put(s, err != nil) asks for, done where they go back.
		s.closeTxn(err != nil)
	}()
	outs := s.onConns(op)
	var lastErr error
	done := 0
	for _, o := range outs {
		if o.ran && o.err == nil {
			done++
		}
	}
	for i, o := range outs {
		if !o.ran || o.err == nil {
			continue
		}
		lastErr = o.err
		if isTransport(o.err) {
			r := s.rs.replicas[i]
			s.fail(r, o.err)
			if done > 0 {
				// The server rolled this replica's transaction back when its
				// connection died, while others committed it: the replica has
				// diverged, so eject it whatever the error class.
				s.rs.eject(r)
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
	return nil
}

// live reports whether r is in the session's transaction.
func (s *replicaTxn) live(r *replica) bool { return s.conns[r.id] != nil && !s.broken[r.id] }

// onConns fans a transaction-control frame out to every live connection of
// the session.
func (s *replicaTxn) onConns(op func(*wire.Conn) error) []fanResult {
	return fanOut(s.rs.replicas, s.live, func(r *replica) (*sqldb.Result, error) {
		return nil, op(s.conns[r.id])
	})
}

// prepare brings the open transaction to the prepared state on every
// participating replica — phase one of the shard coordinator's two-phase
// commit. Any error means the shard could not promise to commit and the
// coordinator must abort everywhere; a transport failure additionally
// poisons that replica's connection (its server-side transaction rolled
// back with the connection).
func (s *replicaTxn) prepare() error {
	var lastErr error
	prepared := 0
	for i, o := range s.onConns((*wire.Conn).PrepareTxn) {
		if !o.ran {
			continue
		}
		if o.err != nil {
			lastErr = o.err
			if isTransport(o.err) {
				s.fail(s.rs.replicas[i], o.err)
			}
			continue
		}
		prepared++
	}
	if prepared == 0 && lastErr == nil {
		return ErrNoReplicas
	}
	return lastErr
}

// execWrite broadcasts a write; its tables are serialized by the locks
// begin took. The version bump stays pending until the transaction ends,
// unless the failure was deterministic database-side: a transport-failed
// broadcast may have applied on some replica.
func (s *replicaTxn) execWrite(query string, args []sqldb.Value, rt *route) (*sqldb.Result, error) {
	res, err := s.broadcast(query, args)
	if err == nil || !wire.IsServerError(err) {
		s.notePublish(rt.tables)
	}
	return res, err
}

// broadcast sends one write to every replica in the transaction over the
// session's connections — concurrently, like the auto-commit fan-out.
// Transport failures eject the replica and the broadcast continues; the lowest-id participating replica's answer is
// canonical. No connection is borrowed here: a replica that was not there
// for BEGIN would run the rest of the transaction in auto-commit.
func (s *replicaTxn) broadcast(query string, args []sqldb.Value) (*sqldb.Result, error) {
	outs := fanOut(s.rs.replicas, s.live, func(r *replica) (*sqldb.Result, error) {
		return s.conns[r.id].Exec(query, args...)
	})
	var b bcast
	b.collect(s.rs, outs, func(r *replica, err error, _ bool) { s.fail(r, err) })
	if b.answered {
		// The write landed somewhere, so the healthy set and the transaction
		// must agree on who is in. A replica this session lost — at begin,
		// earlier in the transaction, or in this fan-out — has missed the
		// write and diverged: eject it regardless of why the connection
		// broke (even pool saturation). A replica ejected meanwhile — for
		// lagging, just above, or by another session — leaves the
		// transaction: the rejoin sync is its only way back, so its acks
		// are not worth waiting for and it gets no COMMIT.
		for _, r := range s.rs.replicas {
			if s.broken[r.id] {
				s.rs.eject(r)
			} else if !r.healthy.Load() {
				s.broken[r.id] = true
			}
		}
	}
	res, err := b.result()
	// A database-side error in `err` is deterministic and leaves the
	// session usable; only an unanswered broadcast poisons it.
	if !b.answered {
		s.failed = true
		return nil, err
	}
	s.repin()
	return res, err
}

// repin keeps the transaction's reads on a replica that is still in it.
func (s *replicaTxn) repin() {
	if s.live(s.pinned) {
		return
	}
	for _, r := range s.rs.replicas {
		if s.live(r) {
			s.pinned = r
			return
		}
	}
}

// fail drops r from the session's transaction and — when err implicates
// the replica rather than this client's own saturation (see ejectable) —
// ejects r.
func (s *replicaTxn) fail(r *replica, err error) {
	s.broken[r.id] = true
	if ejectable(err) {
		s.rs.eject(r)
	}
}

// closeTxn gives back what the transaction held: every borrowed connection
// — discarded when the transaction did not end cleanly, so each server
// rolls back as its connection closes and no pooled connection carries open
// transaction state to its next borrower — and then the write-order locks,
// so the next writer in order finds the pools free. A session holds nothing
// between transactions: its auto-commit statements borrow per statement,
// which a session sitting on a one-connection pool could not.
func (s *replicaTxn) closeTxn(discard bool) {
	for i, cn := range s.conns {
		if cn != nil {
			s.rs.replicas[i].pool.Put(cn, discard || s.failed || s.broken[i])
			s.conns[i] = nil
		}
		s.broken[i] = false
	}
	if s.release != nil {
		s.release()
		s.release = nil
	}
	s.held = nil
	s.inTxn = false
}

// end closes the session. One abandoned with its transaction still open
// discards its connections; the pending version bumps are published anyway,
// the conservative side — a spurious bump only costs cache misses, never
// correctness.
func (s *replicaTxn) end(broken bool) {
	if s.inTxn {
		s.flushWrites()
		broken = true
	}
	s.closeTxn(broken)
}

func (rs *replicaSet) Rejoin(id int, syncData bool) error {
	if id < 0 || id >= len(rs.replicas) {
		return fmt.Errorf("cluster: no replica %d", id)
	}
	r := rs.replicas[id]
	if r.healthy.Load() {
		return nil // nothing to bring back
	}
	// The catch-all write-order key, held exclusively: every writer in this
	// process over this DSN — any of its clients' broadcasts or open write
	// transactions — holds it shared, so none of them lands on the joiner
	// between the pool reset and the end of the data copy. The registry is
	// process-local: a client in another process is not held back.
	release := rs.locks.acquire(catchAll)
	defer release()
	r.pool.Reset()
	if syncData {
		src := rs.pickRead()
		if src == nil {
			return ErrNoReplicas
		}
		// Mark the joiner as mid-sync in the shared (per-DSN) registry: this
		// client's reads already skip it via the healthy flag, but OTHER
		// clients in this process over the same backends — which never
		// ejected it and still see it healthy — must not route reads to a
		// half-copied data set.
		rs.locks.beginSync(r.addr)
		_, _, err := Sync(src.pool, r.pool, rs.syncTO)
		rs.locks.endSync(r.addr, err == nil)
		if err != nil {
			// The replica stays cleanly ejected: healthy stays false for
			// this client, and the sync taint keeps every other client's
			// reads away from the half-copied data set until a later
			// Rejoin completes.
			return fmt.Errorf("cluster: sync replica %d from %d: %w", id, src.id, err)
		}
		rs.WALFullSyncs.Add(1)
	}
	r.healthy.Store(true)
	return nil
}

func (rs *replicaSet) Stats() pool.Stats {
	s := pool.Stats{Name: "db-cluster"}
	if rs.unreplicated() {
		s.Name = "db@" + rs.replicas[0].addr
	}
	for _, r := range rs.replicas {
		telemetry.Add(&s, r.pool.Stats())
	}
	return s
}

func (rs *replicaSet) close() {
	addrs := make([]string, len(rs.replicas))
	for i, r := range rs.replicas {
		r.pool.Close()
		addrs[i] = r.addr
	}
	releaseWriteLocks(addrs)
}
