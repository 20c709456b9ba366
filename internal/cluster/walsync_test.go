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
// broadcast afterwards is logged on every replica).
func startWALReplicas(t *testing.T, n int) []*testReplica {
	t.Helper()
	reps := make([]*testReplica, n)
	for i := range reps {
		db := sqldb.New()
		sess := db.NewSession()
		mustExec(t, sess, `CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32), qty INT)`)
		for j := 1; j <= 5; j++ {
			mustExec(t, sess, "INSERT INTO items (name, qty) VALUES (?, ?)",
				sqldb.String(fmt.Sprintf("item-%d", j)), sqldb.Int(100))
		}
		sess.Close()
		dir := t.TempDir()
		if _, err := db.AttachWAL(sqldb.WALOptions{Dir: dir, CheckpointBytes: -1}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.CloseWAL() })
		srv := wire.NewServer(db, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = &testReplica{db: db, srv: srv, addr: addr.String(), dir: dir}
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

// durableDump is replicaDump plus every table's id-assignment state, which
// a copy of the rows alone would not carry.
func durableDump(t *testing.T, db *sqldb.DB) string {
	t.Helper()
	r := &testReplica{db: db}
	return replicaDump(t, r) + fmt.Sprint(queryReplica(t, r, "SHOW TABLE STATUS").Rows)
}

// rejoinByCopy rejoins replica 1 through c, checks that the rejoin was one
// completed copy and that the joiner now equals replica 0, and returns
// replica 0's durable dump.
func rejoinByCopy(t *testing.T, c *Client, reps []*testReplica) string {
	t.Helper()
	if err := c.Rejoin(1, true); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if st := c.ClientStats(); st.WALFullSyncs != 1 {
		t.Fatalf("rejoin copies = %d, want 1", st.WALFullSyncs)
	}
	want := durableDump(t, reps[0].db)
	if got := durableDump(t, reps[1].db); got != want {
		t.Fatalf("joiner diverged after rejoin:\n got: %s\nwant: %s", got, want)
	}
	return want
}

// TestRejoinFullCopyWALJoinerRecovers: a durable joiner that diverged (a
// stray local INSERT) and fell behind a source that checkpointed and
// deleted a row (its AUTO_INCREMENT counter past its rows) rejoins through
// the one rejoin path, the full copy, and ends identical to the survivor.
// The copy went through the joiner's own log: crashed and recovered from
// its directory, the joiner still equals the survivor and assigns the same
// next id.
func TestRejoinFullCopyWALJoinerRecovers(t *testing.T) {
	reps := startWALReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	if _, err := c.Exec("UPDATE items SET qty = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	ejectAndRestart(t, reps, 1, func() {
		for k := 0; k < 3; k++ {
			if _, err := c.Exec("INSERT INTO items (name, qty) VALUES (?, ?)",
				sqldb.String(fmt.Sprintf("missed-%d", k)), sqldb.Int(int64(k))); err != nil {
				t.Fatalf("write during outage: %v", err)
			}
		}
		if _, err := c.Exec("DELETE FROM items WHERE name = 'missed-2'"); err != nil {
			t.Fatalf("delete during outage: %v", err)
		}
		if err := reps[0].db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// The downed replica takes a write the source never saw.
		sess := reps[1].db.NewSession()
		mustExec(t, sess, "INSERT INTO items (name, qty) VALUES ('stray', 9)")
		sess.Close()
	})
	srcBytes := reps[0].db.Telemetry().WALBytes

	want := rejoinByCopy(t, c, reps)
	if reps[0].db.Telemetry().WALBytes != srcBytes {
		t.Fatal("rejoin appended to the source's log")
	}

	// Power-cut the joiner's log and recover a fresh engine from its
	// directory: the copy is durable, AUTO_INCREMENT state included.
	reps[1].db.WAL().Crash()
	rec := sqldb.New()
	if _, err := rec.AttachWAL(sqldb.WALOptions{Dir: reps[1].dir, CheckpointBytes: -1}); err != nil {
		t.Fatalf("recover joiner: %v", err)
	}
	t.Cleanup(func() { rec.CloseWAL() })
	if got := durableDump(t, rec); got != want {
		t.Fatalf("recovered joiner diverged:\n got: %s\nwant: %s", got, want)
	}
	var ids [2]int64
	for i, db := range []*sqldb.DB{reps[0].db, rec} {
		ids[i] = queryReplica(t, &testReplica{db: db}, "INSERT INTO items (name, qty) VALUES ('next', 0)").LastInsertID
	}
	if ids[0] != 9 || ids[1] != ids[0] {
		t.Fatalf("next ids: survivor %d, recovered joiner %d; want 9 on both", ids[0], ids[1])
	}
}

// TestRejoinFullCopyAfterSourceCheckpoint: a source that checkpointed
// (rotating its log) while the joiner was down still rejoins it by copy,
// and the cluster goes on replicating afterwards.
func TestRejoinFullCopyAfterSourceCheckpoint(t *testing.T) {
	reps := startWALReplicas(t, 2)
	c := newTestClient(t, reps, Config{})

	ejectAndRestart(t, reps, 1, func() {
		if _, err := c.Exec("INSERT INTO items (name, qty) VALUES ('missed', 1)"); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
		if err := reps[0].db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	rejoinByCopy(t, c, reps)

	if _, err := c.Exec("UPDATE items SET qty = 2 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if got, want := durableDump(t, reps[1].db), durableDump(t, reps[0].db); got != want {
		t.Fatalf("replicas diverged on the first write after rejoin:\n got: %s\nwant: %s", got, want)
	}
}

// TestRejoinFullCopyOverwritesDivergedWALJoiner: a joiner that applied a
// write the source never saw, at the same position in its log as the
// source's missed write, is overwritten by the copy, not merged with it.
func TestRejoinFullCopyOverwritesDivergedWALJoiner(t *testing.T) {
	reps := startWALReplicas(t, 2)
	c := newTestClient(t, reps, Config{})

	ejectAndRestart(t, reps, 1, func() {
		if _, err := c.Exec("INSERT INTO items (name, qty) VALUES ('src-only', 1)"); err != nil {
			t.Fatal(err)
		}
		sess := reps[1].db.NewSession()
		mustExec(t, sess, "INSERT INTO items (name, qty) VALUES ('rogue', 9)")
		sess.Close()
	})
	rejoinByCopy(t, c, reps)

	r := &testReplica{db: reps[1].db}
	if n := len(queryReplica(t, r, "SELECT id FROM items WHERE name = 'rogue'").Rows); n != 0 {
		t.Fatalf("rogue row survived the copy (%d rows)", n)
	}
}
