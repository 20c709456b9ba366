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
	if _, _, err := Sync(src, dst, 0); err != nil {
		t.Fatal(err)
	}
	// A destination that takes 30ms per statement blows a 20ms budget
	// within the first table.
	_, _, err := Sync(src, slowExecer{Execer: dst, delay: 30 * time.Millisecond}, 20*time.Millisecond)
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
	px, err := chaos.Listen(reps[1].addr)
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
	px, err := chaos.Listen(reps[1].addr)
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

// TestStaleDegradedLatchSelfHeals: Rejoin on a replica that is already
// healthy is a no-op — it resets no pool (no re-dial follows), runs no data
// sync, and writes keep reaching every replica.
func TestStaleDegradedLatchSelfHeals(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	if _, err := c.Exec("UPDATE items SET qty = 10 WHERE id = 4"); err != nil {
		t.Fatal(err)
	}
	dials := c.ReplicaStats()[1].Pool.Dials
	if err := c.Rejoin(1, true); err != nil {
		t.Fatalf("Rejoin of a healthy replica = %v, want nil", err)
	}
	if _, err := c.Exec("UPDATE items SET qty = 11 WHERE id = 4"); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicaStats()[1].Pool.Dials; got != dials {
		t.Fatalf("replica 1 dials = %d, want %d: Rejoin reset a healthy replica's pool", got, dials)
	}
	if cs := c.ClientStats(); cs.WALFullSyncs != 0 {
		t.Fatalf("Rejoin of a healthy replica synced data: %+v", cs)
	}
	for i, r := range reps {
		if got := queryReplica(t, r, "SELECT qty FROM items WHERE id = 4").Rows[0][0].AsInt(); got != 11 {
			t.Fatalf("replica %d qty = %d, want 11", i, got)
		}
	}
}

// TestMissedWriteOnSaturatedPoolEjects: a replica whose pool wait times out
// during a write broadcast that APPLIED on the other replicas has missed
// the write — it must be ejected (and resynced on rejoin) even though a
// wait timeout is not transport evidence on the read path. The write itself
// succeeds on the replica that took it.
func TestMissedWriteOnSaturatedPoolEjects(t *testing.T) {
	reps := startReplicas(t, 2)
	px, err := chaos.Listen(reps[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c := NewWithConfig(Config{
		DSN:      reps[0].addr + "," + px.Addr(),
		PoolSize: 1,
		Timeouts: pool.Timeouts{Wait: 60 * time.Millisecond},
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
		sqldb.Int(5), sqldb.Int(-1)); err != nil {
		t.Fatalf("write with one replica's pool exhausted = %v, want success on the other", err)
	}
	if c.Healthy() != 1 {
		t.Fatalf("healthy = %d, want the replica that missed the write ejected", c.Healthy())
	}
	if err := <-slow; err != nil {
		t.Fatalf("the in-flight slow write should still complete: %v", err)
	}

	// Rejoin with sync replays the missed audit row, leaving the replicas
	// row-identical.
	px.Clear()
	if err := c.Rejoin(1, true); err != nil {
		t.Fatal(err)
	}
	if c.Healthy() != 2 {
		t.Fatalf("healthy = %d after full rejoin, want 2", c.Healthy())
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

// TestDegradedModeReadOnly: a stalled replica costs one write its operation
// deadline and is ejected by it; the cluster does not go read-only — later
// writes and write transactions run on the survivor without waiting on the
// stalled replica, reads keep flowing, and a rejoin with sync brings the
// replica back identical.
func TestDegradedModeReadOnly(t *testing.T) {
	reps := startReplicas(t, 2)
	px, err := chaos.Listen(reps[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c := NewWithConfig(Config{
		DSN:      reps[0].addr + "," + px.Addr(),
		PoolSize: 2,
		Timeouts: pool.Timeouts{Op: 150 * time.Millisecond},
	})
	defer c.Close()
	if _, err := c.Exec("UPDATE items SET qty = 5 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}

	px.Set(chaos.Fault{Kind: chaos.Stall})
	if _, err := c.Exec("UPDATE items SET qty = 6 WHERE id = 3"); err != nil {
		t.Fatalf("write with a replica stalled = %v, want success on the survivor", err)
	}
	if c.Healthy() != 1 {
		t.Fatalf("healthy = %d, want the stalled replica ejected", c.Healthy())
	}

	// The stalled replica is out of the broadcast: writes no longer wait
	// on its deadline.
	start := time.Now()
	if _, err := c.Exec("UPDATE items SET qty = 7 WHERE id = 3"); err != nil {
		t.Fatalf("write after ejection: %v", err)
	}
	if err := c.WithTx([]string{"items"}, func(tx *Session) error {
		_, err := tx.Exec("UPDATE items SET qty = 8 WHERE id = 3")
		return err
	}); err != nil {
		t.Fatalf("WithTx after ejection: %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("writes after ejection took %v, want no wait on the stalled replica", d)
	}

	// Reads keep flowing off the survivor.
	for i := 0; i < 5; i++ {
		if _, err := c.Exec("SELECT name FROM items WHERE id = 3"); err != nil {
			t.Fatalf("read with a replica ejected: %v", err)
		}
	}

	px.Clear()
	if err := c.Rejoin(1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE items SET qty = 9 WHERE id = 3"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if cs := c.ClientStats(); cs.SlowEjections != 0 {
		t.Fatalf("slow ejections = %d, want 0: a stall is a transport failure", cs.SlowEjections)
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
// the next statement writing into the dead connection. A session whose
// ROLLBACK then reaches no replica is poisoned too, rather than running its
// next statement in auto-commit.
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
		other, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Put(other, true)
		if err := other.Begin("audit"); err != nil {
			t.Fatal(err)
		}
		mustExec(t, other, "UPDATE audit SET delta = 1 WHERE id = 1")
		reps[s.subs[0].pinned.id].srv.Close()
		if _, err := s.Exec("SELECT qty FROM items WHERE id = 1"); !isTransport(err) {
			t.Fatalf("read on the dead pinned replica = %v, want a transport error", err)
		}
		if _, err := s.Exec("SELECT qty FROM items WHERE id = 1"); !errors.Is(err, errSessionFailed) {
			t.Fatalf("statement after the failed read = %v, want errSessionFailed", err)
		}
		for _, r := range reps {
			r.srv.Close()
		}
		if err := other.Rollback(); err == nil {
			t.Fatal("ROLLBACK with every replica dead succeeded")
		}
		if _, err := other.Exec("SELECT qty FROM items WHERE id = 1"); !errors.Is(err, errSessionFailed) {
			t.Fatalf("statement after the failed ROLLBACK = %v, want errSessionFailed", err)
		}
	})
}

// TestReadOnlyTxnSkipsEjectedPinnedReplica: a session's sub-session stays
// pinned to the read replica its first transaction picked, and that replica
// may be ejected before the session reads again. Read-only work runs with no
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
	if err := s.Begin("items"); err != nil {
		t.Fatal(err)
	}
	dead := s.subs[0].pinned
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
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
	px, err := chaos.Listen(reps[1].addr)
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
	if err := s.Begin("items"); err != nil {
		t.Fatal(err)
	}
	s.subs[0].pinned = flat(c).replicas[1] // reads start on the replica about to lag
	px.Set(chaos.Fault{Kind: chaos.Latency, Delay: 300 * time.Millisecond})
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
				sh := c.shardSet
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
