package cluster

import (
	"errors"
	"sync"
	"testing"

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
				if _, err := c.ExecCached("INSERT INTO audit (item, delta) VALUES (?, ?)",
					sqldb.Int(int64(w)), sqldb.Int(int64(i))); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.ExecCached("UPDATE items SET qty = qty + 1 WHERE id = ?",
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
		if _, err := b.ExecCached("SELECT name FROM items WHERE id = 1"); err != nil {
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
		if _, err := b.ExecCached("SELECT name FROM items WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	if rs = b.ReplicaStats(); rs[1].Reads == 0 {
		t.Fatal("replica still shunned after sync completed")
	}
}

// TestReadOnlyTxnSkipsWriteOrderLocks: a BeginReadOnly transaction takes no
// cluster-wide write-order locks — a catch-all writer (which excludes every
// named writer) must proceed while the read-only transaction is open. The
// transaction's own writes are rejected client-side before touching any
// replica, whatever the replica count, and once it has committed the same
// session writes normally again.
func TestReadOnlyTxnSkipsWriteOrderLocks(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{})
		err := c.WithReadTx(func(tx *Session) error {
			res, err := tx.ExecCached("SELECT qty FROM items WHERE id = 1")
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 {
				t.Fatalf("read in RO txn: %d rows", len(res.Rows))
			}
			// If the read-only transaction held any write-order lock, this
			// catch-all-conflicting write from the pool would deadlock here.
			if _, err := c.ExecCached("UPDATE items SET qty = 1 WHERE id = 5"); err != nil {
				t.Fatalf("concurrent write blocked by read-only txn: %v", err)
			}
			// Writes inside the transaction are rejected without reaching a
			// replica.
			if _, err := tx.ExecCached("UPDATE items SET qty = 2 WHERE id = 6"); !errors.Is(err, errReadOnlyTxn) {
				t.Fatalf("write in RO txn: err %v, want errReadOnlyTxn", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.ClientStats().ReadOnlyTxns; got != 1 {
			t.Fatalf("ReadOnlyTxns %d, want 1", got)
		}
		// The rejected write never reached any replica: id=6 keeps its seed qty.
		for i, r := range reps {
			res := queryReplica(t, r, "SELECT qty FROM items WHERE id = 6")
			if got := res.Rows[0][0].AsInt(); got != 100 {
				t.Errorf("replica %d: rejected write leaked, qty %d", i, got)
			}
		}
		// And the concurrent pool write reached every one.
		for i, r := range reps {
			res := queryReplica(t, r, "SELECT qty FROM items WHERE id = 5")
			if got := res.Rows[0][0].AsInt(); got != 1 {
				t.Errorf("replica %d: concurrent write missing, qty %d", i, got)
			}
		}

		// The same on a borrowed session, which outlives the transaction.
		s, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Put(s, false)
		if err := s.BeginReadOnly(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExecCached("SELECT qty FROM items WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExecCached("DELETE FROM items WHERE id = 1"); !errors.Is(err, errReadOnlyTxn) {
			t.Fatalf("err %v, want errReadOnlyTxn", err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		// After COMMIT the session writes normally again.
		if _, err := s.ExecCached("UPDATE items SET qty = 3 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	})
}
