package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// startWALReplicas boots n identically seeded backends whose databases are
// durability-attached (populate first, then AttachWAL — the production boot
// order, so the seed data lands in the initial checkpoint, and every write
// broadcast afterwards is logged at identical LSNs on every replica).
func startWALReplicas(t *testing.T, n int) []*testReplica {
	t.Helper()
	reps := make([]*testReplica, n)
	for i := range reps {
		db := sqldb.New()
		sess := db.NewSession()
		ex := sqldb.SessionExecer{S: sess}
		mustExec(t, ex, `CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32), qty INT)`)
		for j := 1; j <= 5; j++ {
			mustExec(t, ex, "INSERT INTO items (name, qty) VALUES (?, ?)",
				sqldb.String(fmt.Sprintf("item-%d", j)), sqldb.Int(100))
		}
		sess.Close()
		if _, err := db.AttachWAL(sqldb.WALOptions{Dir: t.TempDir(), CheckpointBytes: -1}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.CloseWAL() })
		srv := wire.NewServer(db, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = &testReplica{db: db, srv: srv, addr: addr.String()}
		t.Cleanup(func() { srv.Close() })
	}
	return reps
}

// ejectAndRestart takes replica i's server down, runs missed (writes the
// replica will miss), and restarts a server over the same database on the
// same address. Skips the test if the address cannot be rebound.
func ejectAndRestart(t *testing.T, reps []*testReplica, i int, missed func()) {
	t.Helper()
	reps[i].srv.Close()
	missed()
	srv := wire.NewServer(reps[i].db, nil)
	if _, err := srv.Listen(reps[i].addr); err != nil {
		t.Skipf("cannot rebind %s: %v", reps[i].addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	reps[i].srv = srv
}

// TestRejoinWALDelta: a briefly-down replica rejoins via the WAL delta
// path — only the statements it missed ship, not a full table copy — and
// ends byte-identical to the survivor.
func TestRejoinWALDelta(t *testing.T) {
	reps := startWALReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	if _, err := c.ExecCached("UPDATE items SET qty = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	ejectAndRestart(t, reps, 1, func() {
		for k := 0; k < 10; k++ {
			if _, err := c.ExecCached("INSERT INTO items (name, qty) VALUES (?, ?)",
				sqldb.String(fmt.Sprintf("missed-%d", k)), sqldb.Int(int64(k))); err != nil {
				t.Fatalf("write during outage: %v", err)
			}
		}
	})
	srcBytes := reps[0].db.WALStats().Bytes

	if err := c.Rejoin(1, true); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	st := c.ClientStats()
	if st.WALDeltaSyncs != 1 || st.WALFullSyncs != 0 {
		t.Fatalf("rejoin took the wrong path: delta=%d full=%d", st.WALDeltaSyncs, st.WALFullSyncs)
	}
	if st.WALDeltaStmts < 10 {
		t.Fatalf("delta shipped %d statements, want >= 10 (the missed inserts)", st.WALDeltaStmts)
	}
	if got, want := replicaDump(t, reps[1]), replicaDump(t, reps[0]); got != want {
		t.Fatalf("replica diverged after delta rejoin:\n got: %s\nwant: %s", got, want)
	}
	// The joiner replayed the delta through its own engine, so its log grew
	// in step with the source's — LSN-identical histories, ready for the
	// next delta — rather than being bulk-overwritten.
	if a, b := reps[0].db.WALStats(), reps[1].db.WALStats(); a.LastLSN != b.LastLSN {
		t.Fatalf("log heads diverged after delta rejoin: src %d joiner %d", a.LastLSN, b.LastLSN)
	}
	if reps[0].db.WALStats().Bytes != srcBytes {
		t.Fatal("delta rejoin appended to the source's log")
	}

	// The cluster keeps working and replicating after the rejoin.
	if _, err := c.ExecCached("UPDATE items SET qty = 2 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if got, want := replicaDump(t, reps[1]), replicaDump(t, reps[0]); got != want {
		t.Fatal("replicas diverged on the first write after delta rejoin")
	}
}

// TestRejoinWALDeltaFallsBackAfterRotation: when the source checkpointed
// (rotating the log) past the joiner's position while it was down, the
// delta is gone and Rejoin must fall back to the full copy — and still
// converge.
func TestRejoinWALDeltaFallsBackAfterRotation(t *testing.T) {
	reps := startWALReplicas(t, 2)
	c := newTestClient(t, reps, Config{})

	ejectAndRestart(t, reps, 1, func() {
		if _, err := c.ExecCached("INSERT INTO items (name, qty) VALUES ('missed', 1)"); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
		// The source rotates its log past the joiner's head.
		if err := reps[0].db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})

	if err := c.Rejoin(1, true); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	st := c.ClientStats()
	if st.WALFullSyncs != 1 || st.WALDeltaSyncs != 0 {
		t.Fatalf("rejoin took the wrong path: delta=%d full=%d", st.WALDeltaSyncs, st.WALFullSyncs)
	}
	if got, want := replicaDump(t, reps[1]), replicaDump(t, reps[0]); got != want {
		t.Fatalf("replica diverged after fallback rejoin:\n got: %s\nwant: %s", got, want)
	}
}

// TestRejoinWALDeltaRefusesDivergedJoiner: a joiner whose history is NOT a
// prefix of the source's (it applied a write the source never saw) must
// not be delta-synced — the chain handshake detects the divergence and the
// full copy restores consistency.
func TestRejoinWALDeltaRefusesDivergedJoiner(t *testing.T) {
	reps := startWALReplicas(t, 2)
	c := newTestClient(t, reps, Config{})

	ejectAndRestart(t, reps, 1, func() {
		// The source moves on…
		if _, err := c.ExecCached("INSERT INTO items (name, qty) VALUES ('src-only', 1)"); err != nil {
			t.Fatal(err)
		}
		// …and the downed replica takes a rogue local write at the same LSN.
		sess := reps[1].db.NewSession()
		if _, err := sess.Exec("INSERT INTO items (name, qty) VALUES ('rogue', 9)"); err != nil {
			t.Fatal(err)
		}
		sess.Close()
	})

	if err := c.Rejoin(1, true); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if st := c.ClientStats(); st.WALDeltaSyncs != 0 || st.WALFullSyncs != 1 {
		t.Fatalf("diverged joiner must full-copy: delta=%d full=%d", st.WALDeltaSyncs, st.WALFullSyncs)
	}
	if got, want := replicaDump(t, reps[1]), replicaDump(t, reps[0]); got != want {
		t.Fatalf("replica diverged after divergence fallback:\n got: %s\nwant: %s", got, want)
	}
}
