package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sqldb"
)

// TestBatchedBroadcastSurvivorsIdentical hammers concurrent writes through
// the batched (fan-out) broadcast path and kills one replica mid-run: the
// survivors must finish bit-identical — same rows, same AUTO_INCREMENT
// assignments — because the write-order locks are held across the whole
// concurrent fan-out, not per replica.
func TestBatchedBroadcastSurvivorsIdentical(t *testing.T) {
	reps := startReplicas(t, 3)
	c := newTestClient(t, reps, Config{PoolSize: 8})
	const workers, rounds = 6, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w == 0 && i == rounds/2 {
					reps[2].srv.Close() // mid-batch kill
				}
				if _, err := c.Exec("INSERT INTO audit (item, delta) VALUES (?, ?)",
					sqldb.Int(int64(w)), sqldb.Int(int64(i))); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Exec("UPDATE items SET qty = qty + 1 WHERE id = ?",
					sqldb.Int(int64(1+i%10))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if h := c.Healthy(); h != 2 {
		t.Fatalf("healthy %d, want 2 after mid-run kill", h)
	}
	for _, q := range []string{
		"SELECT id, item, delta FROM audit ORDER BY id",
		"SELECT id, qty FROM items ORDER BY id",
	} {
		a := queryReplica(t, reps[0], q)
		b := queryReplica(t, reps[1], q)
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: row counts diverged %d vs %d", q, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j].AsInt() != b.Rows[i][j].AsInt() {
					t.Fatalf("%s: row %d diverged: %v vs %v", q, i, a.Rows[i], b.Rows[i])
				}
			}
		}
	}
	cs := c.ClientStats()
	if cs.Broadcasts == 0 || cs.BroadcastAcks <= cs.Broadcasts {
		t.Errorf("fan-out counters implausible: %+v (want acks > broadcasts with >1 replica)", cs)
	}
}

// TestReadsSkipSyncingReplica pins the rejoin-window routing rule: while a
// replica's data copy is in flight (marked in the per-DSN shared registry
// by Rejoin), NO client over that DSN may route reads to it — including
// clients that never ejected it and still consider it healthy.
func TestReadsSkipSyncingReplica(t *testing.T) {
	reps := startReplicas(t, 2)
	a := newTestClient(t, reps, Config{})
	b := newTestClient(t, reps, Config{}) // shares the DSN's lock registry

	// Simulate client a's Rejoin holding the sync window open.
	flat(a).locks.beginSync(reps[1].addr)
	for i := 0; i < 30; i++ {
		if _, err := b.Exec("SELECT name FROM items WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	rs := b.ReplicaStats()
	if rs[1].Reads != 0 {
		t.Fatalf("%d reads routed to the mid-sync replica, want 0", rs[1].Reads)
	}
	if rs[0].Reads != 30 {
		t.Fatalf("survivor served %d reads, want 30", rs[0].Reads)
	}

	flat(a).locks.endSync(reps[1].addr, true)
	for i := 0; i < 30; i++ {
		if _, err := b.Exec("SELECT name FROM items WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	if rs = b.ReplicaStats(); rs[1].Reads == 0 {
		t.Fatal("replica still shunned after sync completed")
	}
}

// TestReadOnlyTxnSkipsWriteOrderLocks: read-only work runs on a session
// with no transaction open and takes no cluster-wide write-order lock — its
// reads complete while another client holds the catch-all key (which
// excludes every named writer), whatever the replica count. Once the holder
// commits, the same session writes to every replica.
func TestReadOnlyTxnSkipsWriteOrderLocks(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{})
		holder := newTestClient(t, reps, Config{})
		w, err := holder.Get()
		if err != nil {
			t.Fatal(err)
		}
		defer holder.Put(w, false)
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		s, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Put(s, false)
		done := make(chan error, 1)
		go func() {
			for id := 1; id <= 3; id++ {
				if _, err := s.Exec("SELECT qty FROM items WHERE id = ?", sqldb.Int(int64(id))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("session reads blocked behind another client's write-order locks")
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "UPDATE items SET qty = 3 WHERE id = 1")
		for i, r := range reps {
			if got := queryReplica(t, r, "SELECT qty FROM items WHERE id = 1").Rows[0][0].AsInt(); got != 3 {
				t.Errorf("replica %d: session write missing, qty %d", i, got)
			}
		}
	})
}
