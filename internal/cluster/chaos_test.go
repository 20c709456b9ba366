package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// slowExecer delays every statement — a stand-in for a stalled sync peer.
type slowExecer struct {
	sqldb.Execer
	delay time.Duration
}

func (s slowExecer) Exec(q string, args ...sqldb.Value) (*sqldb.Result, error) {
	time.Sleep(s.delay)
	return s.Execer.Exec(q, args...)
}

func TestSyncWithinDeadline(t *testing.T) {
	reps := startReplicas(t, 2)
	src := reps[0].db.NewSession()
	dst := reps[1].db.NewSession()
	// Unbounded still works.
	if _, _, err := syncWithin(src, dst, 0); err != nil {
		t.Fatal(err)
	}
	// A destination that takes 30ms per statement blows a 20ms budget
	// within the first table.
	_, _, err := syncWithin(src, slowExecer{Execer: dst, delay: 30 * time.Millisecond}, 20*time.Millisecond)
	if !errors.Is(err, ErrSyncTimeout) {
		t.Fatalf("err = %v, want ErrSyncTimeout", err)
	}
}

// TestRejoinDeadlineLeavesReplicaEjected: a rejoin whose data copy stalls
// must give up at the sync deadline and leave the replica cleanly ejected
// — unhealthy for this client AND marked half-synced for every client
// sharing the DSN — instead of promoting a half-copied data set (or
// hanging forever, the pre-deadline behavior).
func TestRejoinDeadlineLeavesReplicaEjected(t *testing.T) {
	reps := startReplicas(t, 2)
	px, err := chaos.Listen("replica1", reps[1].addr, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	cfg := Config{
		DSN:         reps[0].addr + "," + px.Addr(),
		PoolSize:    2,
		Timeouts:    pool.Timeouts{Op: 150 * time.Millisecond},
		SyncTimeout: 300 * time.Millisecond,
	}
	c := NewWithConfig(cfg)
	defer c.Close()

	if _, err := c.Exec("UPDATE items SET qty = 7 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	// Stall the proxy: the next broadcast's ack from replica 1 times out on
	// the op deadline and ejects it.
	px.Set(chaos.Fault{Kind: chaos.Stall})
	if _, err := c.Exec("UPDATE items SET qty = 8 WHERE id = 1"); err != nil {
		t.Fatalf("write-all-available write should survive the stalled replica: %v", err)
	}
	if c.Healthy() != 1 {
		t.Fatalf("healthy = %d, want the stalled replica ejected", c.Healthy())
	}

	// Rejoin against the still-stalled replica: the sync must give up at
	// its deadline, bounded well under a test timeout.
	start := time.Now()
	if err := c.Rejoin(1, true); err == nil {
		t.Fatal("rejoin through a stalled proxy succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("rejoin took %v, want bounded by the deadlines", d)
	}
	if c.Healthy() != 1 {
		t.Fatal("failed rejoin must leave the replica ejected")
	}
	if !flat(c).locks.syncing(px.Addr()) {
		t.Fatal("failed sync must leave the replica marked half-synced for other clients")
	}

	// Heal and rejoin for real.
	px.Clear()
	if err := c.Rejoin(1, true); err != nil {
		t.Fatalf("rejoin after heal: %v", err)
	}
	if c.Healthy() != 2 {
		t.Fatalf("healthy = %d after successful rejoin", c.Healthy())
	}
	if flat(c).locks.syncing(px.Addr()) {
		t.Fatal("successful sync must clear the half-synced mark")
	}
	res := queryReplica(t, reps[1], "SELECT qty FROM items WHERE id = 1")
	if res.Rows[0][0].AsInt() != 8 {
		t.Fatal("rejoined replica missing the write it slept through")
	}
}

// TestPoolWaitTimeoutDoesNotEject: an exhausted pool is client-side
// saturation, not replica failure — Get's wait deadline must surface the
// typed error without ejecting the (perfectly healthy) replica.
func TestPoolWaitTimeoutDoesNotEject(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{
		PoolSize: 1,
		Timeouts: pool.Timeouts{Wait: 40 * time.Millisecond},
	})
	// A write transaction borrows the single connection to BOTH replicas
	// and holds them until it ends.
	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("audit"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Exec("SELECT name FROM items WHERE id = 1")
	if !errors.Is(err, pool.ErrWaitTimeout) {
		t.Fatalf("read on exhausted pools = %v, want pool.ErrWaitTimeout", err)
	}
	if c.Healthy() != 2 {
		t.Fatalf("healthy = %d; pool saturation must not eject replicas", c.Healthy())
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Put(s, false)
	if _, err := c.Exec("SELECT name FROM items WHERE id = 1"); err != nil {
		t.Fatalf("read after the transaction ended: %v", err)
	}
}

// TestSlowReplicaEjection: a replica whose acks trail the pack beyond
// SlowThreshold is ejected from routing even though its transport still
// answers — the slow-but-alive replica otherwise drags every broadcast
// down to its speed.
func TestSlowReplicaEjection(t *testing.T) {
	reps := startReplicas(t, 2)
	px, err := chaos.Listen("replica1", reps[1].addr, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c := NewWithConfig(Config{
		DSN:           reps[0].addr + "," + px.Addr(),
		PoolSize:      2,
		SlowThreshold: 100 * time.Millisecond,
	})
	defer c.Close()
	if _, err := c.Exec("UPDATE items SET qty = 1 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	px.Set(chaos.Fault{Kind: chaos.Latency, Delay: 300 * time.Millisecond})
	if _, err := c.Exec("UPDATE items SET qty = 2 WHERE id = 2"); err != nil {
		t.Fatalf("write with a slow replica: %v", err)
	}
	if c.Healthy() != 1 {
		t.Fatalf("healthy = %d, want the slow replica ejected", c.Healthy())
	}
	if cs := c.ClientStats(); cs.SlowEjections != 1 {
		t.Fatalf("slow ejections = %d, want 1", cs.SlowEjections)
	}
	// Reads now route around it without paying its latency.
	start := time.Now()
	if _, err := c.Exec("SELECT name FROM items WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("read took %v after the slow replica was ejected", d)
	}
}

// TestEndSyncTaintKeepsCountPositive: when a sync fails, the taint inherits
// the sync's syncCount contribution instead of decrementing and
// re-incrementing — syncing()'s lock-free fast path must never observe a
// transient zero while a half-copied replica still needs reads routed away.
// This pins the counter's balance across the taint lifecycle.
func TestEndSyncTaintKeepsCountPositive(t *testing.T) {
	w := newWriteLocks()
	w.beginSync("a")
	if !w.syncing("a") || w.syncCount.Load() != 1 {
		t.Fatalf("mid-sync: syncing=%v count=%d", w.syncing("a"), w.syncCount.Load())
	}
	w.endSync("a", false)
	if !w.syncing("a") || w.syncCount.Load() != 1 {
		t.Fatalf("after failed sync: syncing=%v count=%d, want taint holding count at 1", w.syncing("a"), w.syncCount.Load())
	}
	// A second failed cycle must not double-count the taint.
	w.beginSync("a")
	w.endSync("a", false)
	if !w.syncing("a") || w.syncCount.Load() != 1 {
		t.Fatalf("after second failed sync: syncing=%v count=%d", w.syncing("a"), w.syncCount.Load())
	}
	// Success clears the taint and the sync's own count.
	w.beginSync("a")
	w.endSync("a", true)
	if w.syncing("a") || w.syncCount.Load() != 0 {
		t.Fatalf("after successful sync: syncing=%v count=%d, want clean zero", w.syncing("a"), w.syncCount.Load())
	}
}

// TestStaleDegradedLatchSelfHeals: a degraded latch that outlives the last
// rejoin (every replica healthy again — e.g. a racing rejoin completed
// between a broadcast's ejection and its enterDegraded) must not leave a
// whole healthy cluster read-only forever: the write gate self-heals, and
// Rejoin on an already-healthy replica clears the latch instead of
// returning early past it.
func TestStaleDegradedLatchSelfHeals(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{StrictWrites: true})
	flat(c).degraded.Store(true)
	if _, err := c.Exec("UPDATE items SET qty = 11 WHERE id = 4"); err != nil {
		t.Fatalf("write on a whole healthy cluster = %v, want the stale latch self-healed", err)
	}
	if c.Degraded() {
		t.Fatal("stale latch must clear once the replica set is whole")
	}
	if cs := c.ClientStats(); cs.DegradedExits != 1 {
		t.Fatalf("degraded exits = %d, want 1", cs.DegradedExits)
	}

	flat(c).degraded.Store(true)
	if err := c.Rejoin(1, false); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() {
		t.Fatal("Rejoin on a healthy replica must still clear the stale latch")
	}
}

// TestMissedWriteOnSaturatedPoolEjects: a replica whose pool wait times out
// during a write broadcast that APPLIED on the other replicas has missed
// the write — it must be ejected (and resynced on rejoin) even though a
// wait timeout is not transport evidence on the read path. Under
// StrictWrites this is also the wedge regression: the degraded latch must
// always come with an ejected replica, so Rejoin has something to bring
// back and an exit path for the latch.
func TestMissedWriteOnSaturatedPoolEjects(t *testing.T) {
	reps := startReplicas(t, 2)
	px, err := chaos.Listen("replica1", reps[1].addr, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c := NewWithConfig(Config{
		DSN:          reps[0].addr + "," + px.Addr(),
		PoolSize:     1,
		StrictWrites: true,
		Timeouts:     pool.Timeouts{Wait: 60 * time.Millisecond},
	})
	defer c.Close()
	if _, err := c.Exec("UPDATE items SET qty = 1 WHERE id = 5"); err != nil {
		t.Fatal(err)
	}

	// Occupy replica 1's single pooled connection with a slow round trip;
	// a concurrent write on a different table (different write-order lock)
	// applies on replica 0 and times out waiting for replica 1's pool.
	px.Set(chaos.Fault{Kind: chaos.Latency, Delay: 400 * time.Millisecond})
	slow := make(chan error, 1)
	go func() {
		_, err := c.Exec("UPDATE items SET qty = 2 WHERE id = 5")
		slow <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if _, err := c.Exec("INSERT INTO audit (item, delta) VALUES (?, ?)",
		sqldb.Int(5), sqldb.Int(-1)); err == nil {
		t.Fatal("strict write must fail when a replica's pool stays exhausted mid-broadcast")
	}
	if c.Healthy() != 1 {
		t.Fatalf("healthy = %d, want the replica that missed the write ejected", c.Healthy())
	}
	if !c.Degraded() {
		t.Fatal("strict missed-write failure must latch degraded mode")
	}
	if _, err := c.Exec("UPDATE items SET qty = 3 WHERE id = 5"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write in degraded mode = %v, want ErrDegraded", err)
	}
	if err := <-slow; err != nil {
		t.Fatalf("the in-flight slow write should still complete: %v", err)
	}

	// Rejoin with sync replays the missed audit row; the latch clears and
	// writes flow again, leaving the replicas row-identical.
	px.Clear()
	if err := c.Rejoin(1, true); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() || c.Healthy() != 2 {
		t.Fatalf("degraded=%v healthy=%d after full rejoin", c.Degraded(), c.Healthy())
	}
	if _, err := c.Exec("UPDATE items SET qty = 9 WHERE id = 5"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	for i, r := range reps {
		if got := queryReplica(t, r, "SELECT qty FROM items WHERE id = 5").Rows[0][0].AsInt(); got != 9 {
			t.Fatalf("replica %d qty = %d, want 9", i, got)
		}
		if got := queryReplica(t, r, "SELECT delta FROM audit WHERE item = 5"); len(got.Rows) != 1 {
			t.Fatalf("replica %d audit rows = %d, want the missed write resynced", i, len(got.Rows))
		}
	}
}

// TestDegradedModeReadOnly: under StrictWrites, losing a replica flips the
// cluster into explicit read-only degradation — writes fail fast with
// ErrDegraded (no broadcast attempted), reads keep flowing — and a full
// rejoin flips it back.
func TestDegradedModeReadOnly(t *testing.T) {
	reps := startReplicas(t, 2)
	px, err := chaos.Listen("replica1", reps[1].addr, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c := NewWithConfig(Config{
		DSN:          reps[0].addr + "," + px.Addr(),
		PoolSize:     2,
		StrictWrites: true,
		Timeouts:     pool.Timeouts{Op: 150 * time.Millisecond},
	})
	defer c.Close()
	if _, err := c.Exec("UPDATE items SET qty = 5 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}

	px.Set(chaos.Fault{Kind: chaos.Stall})
	if _, err := c.Exec("UPDATE items SET qty = 6 WHERE id = 3"); err == nil {
		t.Fatal("strict write must fail when a replica stalls mid-broadcast")
	}
	if !c.Degraded() {
		t.Fatal("strict failure must latch degraded mode")
	}

	// Writes now fail FAST with the typed error, without broadcasting.
	start := time.Now()
	_, err = c.Exec("UPDATE items SET qty = 7 WHERE id = 3")
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("write in degraded mode = %v, want ErrDegraded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("degraded write took %v, want a fast fail", d)
	}
	// A write transaction fails at BEGIN the same way.
	if err := c.WithTx([]string{"items"}, func(tx *Session) error { return nil }); !errors.Is(err, ErrDegraded) {
		t.Fatalf("WithTx in degraded mode = %v, want ErrDegraded", err)
	}

	// Reads keep flowing off the survivor.
	for i := 0; i < 5; i++ {
		if _, err := c.Exec("SELECT name FROM items WHERE id = 3"); err != nil {
			t.Fatalf("degraded read: %v", err)
		}
	}

	px.Clear()
	if err := c.Rejoin(1, true); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() {
		t.Fatal("full rejoin must exit degraded mode")
	}
	if _, err := c.Exec("UPDATE items SET qty = 9 WHERE id = 3"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	cs := c.ClientStats()
	if cs.DegradedEntries != 1 || cs.DegradedExits != 1 || cs.DegradedRejects < 2 {
		t.Fatalf("degraded counters = %+v", cs)
	}
	for i, r := range reps {
		res := queryReplica(t, r, "SELECT qty FROM items WHERE id = 3")
		if got := res.Rows[0][0].AsInt(); got != 9 {
			t.Fatalf("replica %d qty = %d, want 9 (divergence after recovery)", i, got)
		}
	}
}

// TestTxnPinnedReadFailurePoisonsSession: when the replica a transaction
// reads from dies under it, that server has rolled its side back; the
// session is poisoned there and then, at every replica count, instead of
// the next statement writing into the dead connection.
func TestTxnPinnedReadFailurePoisonsSession(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{})
		s, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Put(s, true)
		if err := s.Begin("items"); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "UPDATE items SET qty = 1 WHERE id = 1")
		reps[s.txn.(*replicaTxn).pinned.id].srv.Close()
		if _, err := s.Exec("SELECT qty FROM items WHERE id = 1"); !isTransport(err) {
			t.Fatalf("read on the dead pinned replica = %v, want a transport error", err)
		}
		if _, err := s.Exec("SELECT qty FROM items WHERE id = 1"); !errors.Is(err, errSessionFailed) {
			t.Fatalf("statement after the failed read = %v, want errSessionFailed", err)
		}
	})
}

// TestReadOnlyTxnSkipsEjectedPinnedReplica: a session is pinned at Get, and
// its replica may be ejected before it reads. Read-only work runs with no
// transaction open, so its reads take the load-balanced path and land on
// the survivor, not on the dead pinned replica.
func TestReadOnlyTxnSkipsEjectedPinnedReplica(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Put(s, false)
	dead := s.txn.(*replicaTxn).pinned
	reps[dead.id].srv.Close()
	flat(c).eject(dead)
	for id := 1; id <= 3; id++ {
		if got := queryQty(t, s, id); got != 100 {
			t.Fatalf("qty of item %d = %d on the survivor, want 100", id, got)
		}
	}
	if rs := c.ReplicaStats(); rs[dead.id].Reads != 0 || rs[1-dead.id].Reads != 3 {
		t.Fatalf("reads per replica %d / %d, want all 3 on the survivor", rs[0].Reads, rs[1].Reads)
	}
}

// TestSlowReplicaEjectedByTxnWrite: SlowThreshold covers the writes the
// applications actually issue, which are transactional. The first broadcast
// the slow replica trails ejects it and drops it from the transaction,
// which goes on — reads re-pinned, later writes and the COMMIT on the
// survivor alone — at the survivor's speed.
func TestSlowReplicaEjectedByTxnWrite(t *testing.T) {
	reps := startReplicas(t, 2)
	px, err := chaos.Listen("replica1", reps[1].addr, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c := NewWithConfig(Config{
		DSN:           reps[0].addr + "," + px.Addr(),
		PoolSize:      2,
		SlowThreshold: 100 * time.Millisecond,
	})
	defer c.Close()
	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Put(s, false)
	s.txn.(*replicaTxn).pinned = flat(c).replicas[1] // reads start on the replica about to lag
	px.Set(chaos.Fault{Kind: chaos.Latency, Delay: 300 * time.Millisecond})
	if err := s.Begin("items"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE items SET qty = 1 WHERE id = 2")
	if c.Healthy() != 1 {
		t.Fatalf("healthy = %d after the first transactional write, want the slow replica ejected", c.Healthy())
	}
	if cs := c.ClientStats(); cs.SlowEjections != 1 {
		t.Fatalf("slow ejections = %d, want 1", cs.SlowEjections)
	}
	start := time.Now()
	if got := queryQty(t, s, 2); got != 1 {
		t.Fatalf("read-your-writes after the ejection = %d, want 1", got)
	}
	mustExec(t, s, "UPDATE items SET qty = 2 WHERE id = 2")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("read, write and commit took %v after the slow replica left the transaction", d)
	}
	if got := queryReplica(t, reps[0], "SELECT qty FROM items WHERE id = 2").Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("survivor qty = %d, want the committed 2", got)
	}
}

// TestRejoinExcludesOtherClientsWriters: a load-balanced app tier runs one
// client per backend over the same DSN and rejoins client by client. While
// one client copies data onto the joiner, the OTHER client — which never
// ejected it — must not broadcast into the half-copied data set: Rejoin
// excludes every writer the DSN's shared write-order locks know, not only
// its own client's.
func TestRejoinExcludesOtherClientsWriters(t *testing.T) {
	reps := startReplicas(t, 2)
	a := newTestClient(t, reps, Config{PoolSize: 8})
	b := newTestClient(t, reps, Config{PoolSize: 8})
	for round := 0; round < 5; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := a.Exec("INSERT INTO audit (item, delta) VALUES (?, ?)", sqldb.Int(int64(w)), sqldb.Int(int64(i))); err != nil {
						t.Error(err)
						return
					}
					if _, err := a.Exec("UPDATE items SET qty = qty + 1 WHERE id = ?", sqldb.Int(int64(1+w))); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		for i := 0; i < 20; i++ {
			flat(b).replicas[1].healthy.Store(false)
			if err := b.Rejoin(1, true); err != nil {
				t.Errorf("round %d rejoin %d: %v", round, i, err)
				break
			}
		}
		close(stop)
		wg.Wait()
		if x, y := replicaDump(t, reps[0]), replicaDump(t, reps[1]); x != y {
			t.Fatalf("round %d: replicas diverged across the rejoins:\n%s\nvs\n%s", round, x, y)
		}
	}
}

// TestChaosShardSplitInsert: a multi-row INSERT split across a 2×2 tier
// loses replicas at two timings — before the statement's parts go out
// (so before PREPARE) and inside 2PC's in-doubt window (betweenPhases) —
// in auto-commit and in a transaction. The outcome is success or a typed
// error, never some of the statement's rows without the others; after heal
// and rejoin every shard's replicas are byte-identical.
func TestChaosShardSplitInsert(t *testing.T) {
	const rows = 12 // customers 1…12: six rows per shard
	cells := []struct {
		name    string
		victims [][2]int // (shard, replica)
		between bool     // kill inside the in-doubt window, not before
		ok      bool
	}{
		{"replica-before", [][2]int{{1, 1}}, false, true},
		{"replica-between", [][2]int{{0, 1}}, true, true},
		{"shard-before", [][2]int{{1, 0}, {1, 1}}, false, false},
	}
	for _, cell := range cells {
		for _, inTxn := range []bool{false, true} {
			name := cell.name + "/autocommit"
			if inTxn {
				name = cell.name + "/txn"
			}
			t.Run(name, func(t *testing.T) {
				groups := startShards(t, 2, 2)
				c := newShardClient(t, groups, Config{Timeouts: pool.Timeouts{Op: 2 * time.Second}})
				kill := func() {
					for _, v := range cell.victims {
						groups[v[0]][v[1]].srv.Close()
					}
				}
				sh := c.backend.(*shardSet)
				if cell.between {
					sh.betweenPhases = kill
				} else {
					kill()
				}
				q := "INSERT INTO orders (customer_id, total) VALUES (?, ?)" + strings.Repeat(", (?, ?)", rows-1)
				var args []sqldb.Value
				for i := 1; i <= rows; i++ {
					args = append(args, sqldb.Int(int64(i)), sqldb.Int(int64(i)))
				}
				var err error
				if inTxn {
					err = c.WithTx([]string{"orders"}, func(tx *Session) error {
						_, err := tx.Exec(q, args...)
						return err
					})
				} else {
					_, err = c.Exec(q, args...)
				}
				sh.betweenPhases = nil
				if cell.ok && err != nil {
					t.Fatalf("split INSERT with %v down: %v", cell.victims, err)
				}
				if !cell.ok && err == nil {
					t.Fatal("split INSERT succeeded with a whole shard down")
				}
				if !cell.ok && inTxn && !errors.Is(err, ErrSplitInsertAborted) {
					t.Fatalf("in a transaction: %v, want ErrSplitInsertAborted", err)
				}

				// Heal: rebind every victim on its old address and rejoin it,
				// the first of a whole dead shard without a sync source.
				for i, v := range cell.victims {
					r := groups[v[0]][v[1]]
					srv := wire.NewServer(r.db, nil)
					if _, err := srv.Listen(r.addr); err != nil {
						t.Skipf("cannot rebind %s: %v", r.addr, err)
					}
					t.Cleanup(func() { srv.Close() })
					r.srv = srv
					if err := c.Rejoin(v[0]*2+v[1], cell.ok || i > 0); err != nil {
						t.Fatalf("rejoin %v: %v", v, err)
					}
				}
				if h := c.Healthy(); h != 4 {
					t.Fatalf("healthy %d after rejoin, want 4", h)
				}
				landed := 0
				for si, g := range groups {
					want := dumpReplica(t, g[0])
					if got := dumpReplica(t, g[1]); got != want {
						t.Errorf("shard %d replicas diverged:\n%s\nwant:\n%s", si, got, want)
					}
					landed += int(queryReplica(t, g[0], "SELECT COUNT(*) FROM orders").Rows[0][0].AsInt())
				}
				if want := map[bool]int{true: rows, false: 0}[err == nil]; landed != want {
					t.Fatalf("%d of the statement's %d rows landed (err %v), want %d", landed, rows, err, want)
				}
			})
		}
	}
}
