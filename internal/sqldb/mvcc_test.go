package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mvccDB builds the transfer ledger the torture tests hammer: two accounts
// whose balances always sum to 200 in every committed state.
func mvccDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, `CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`)
	mustTx(t, s, "INSERT INTO acct (id, bal) VALUES (1, 100)")
	mustTx(t, s, "INSERT INTO acct (id, bal) VALUES (2, 100)")
	return db
}

// TestMVCCSnapshotTorture runs transactional writers that move money
// between the two accounts (every committed state sums to 200) against
// snapshot readers that assert per-statement consistency — run with -race.
// A reader that ever observes a mid-transaction sum has seen uncommitted
// state; a reader that observes a sum other than 200 has seen a torn
// snapshot (one row from before a commit, one from after).
func TestMVCCSnapshotTorture(t *testing.T) {
	db := mvccDB(t)
	const writers, readers, rounds = 4, 4, 200
	var wg, reading sync.WaitGroup
	var stop atomic.Bool
	reading.Add(readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer stop.Store(true)
			s := db.NewSession()
			defer s.Close()
			// The 200 rounds take a millisecond: without this the writers
			// can be done before a reader has started.
			reading.Wait()
			for i := 0; i < rounds; i++ {
				if _, err := s.Exec("BEGIN"); err != nil {
					t.Error(err)
					return
				}
				amt := Int(int64(1 + (w+i)%5))
				_, err1 := s.Exec("UPDATE acct SET bal = bal - ? WHERE id = 1", amt)
				_, err2 := s.Exec("UPDATE acct SET bal = bal + ? WHERE id = 2", amt)
				if err1 != nil || err2 != nil {
					// A lock-wait abort rolled the transaction back; every
					// other error leaves it open — roll back explicitly.
					s.Exec("ROLLBACK")
					continue
				}
				// Odd rounds roll back: the snapshot published at the next
				// read must not contain the undone halves either.
				end := "COMMIT"
				if i%2 == 1 {
					end = "ROLLBACK"
				}
				if _, err := s.Exec(end); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for n := 0; !stop.Load(); n++ {
				res, err := s.Exec("SELECT id, bal FROM acct")
				if n == 0 {
					reading.Done()
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 2 {
					t.Errorf("snapshot saw %d rows, want 2", len(res.Rows))
					return
				}
				sum := res.Rows[0][1].AsInt() + res.Rows[1][1].AsInt()
				if sum != 200 {
					t.Errorf("inconsistent snapshot: balances sum to %d, want 200", sum)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := db.MVCCStats()
	if st.SnapshotReads == 0 || st.LockBypasses == 0 {
		t.Errorf("snapshot read path never engaged: %+v", st)
	}
	if st.Refreshes == 0 {
		t.Errorf("writers published versions but no snapshot was ever rebuilt: %+v", st)
	}
}

// TestMVCCReadOnlyTxnConsistency: a transaction that only reads must see
// committed state in every statement. Its reads hold no locks a writer
// could wait on; the one legitimate failure is a lock-wait timeout on the
// snapshot-refresh slow path, which aborts the reader cleanly — the test
// restarts it and keeps asserting consistency.
func TestMVCCReadOnlyTxnConsistency(t *testing.T) {
	db := mvccDB(t)
	var wg sync.WaitGroup
	var stop atomic.Bool

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 300; i++ {
			mustTx(t, s, "BEGIN")
			mustTx(t, s, "UPDATE acct SET bal = bal - 1 WHERE id = 1")
			mustTx(t, s, "UPDATE acct SET bal = bal + 1 WHERE id = 2")
			mustTx(t, s, "COMMIT")
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.NewSession()
		defer s.Close()
		for !stop.Load() {
			if _, err := s.Exec("BEGIN"); err != nil {
				t.Error(err)
				return
			}
			aborted := false
			for j := 0; j < 3; j++ {
				res, err := s.Exec("SELECT id, bal FROM acct")
				if err != nil {
					if strings.Contains(err.Error(), ErrLockWaitTimeout.Error()) {
						aborted = true // refresh slow path timed out; txn rolled back
						break
					}
					t.Errorf("read-only txn statement failed: %v", err)
					return
				}
				if sum := res.Rows[0][1].AsInt() + res.Rows[1][1].AsInt(); sum != 200 {
					t.Errorf("read-only txn saw sum %d, want 200", sum)
				}
			}
			if aborted {
				continue
			}
			if _, err := s.Exec("COMMIT"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestMVCCReadYourWrites: once a transaction has written a table, its own
// reads must switch from the snapshot to the live locked rows — and other
// sessions' snapshot reads must keep seeing the pre-transaction state
// until COMMIT publishes a new version.
func TestMVCCReadYourWrites(t *testing.T) {
	db := mvccDB(t)
	w := db.NewSession()
	defer w.Close()
	r := db.NewSession()
	defer r.Close()

	// Warm the snapshot first: a COLD snapshot build takes the table read
	// lock and would wait out the writer's open transaction; a warm one is
	// served lock-free while the writer holds the table.
	mustTx(t, r, "SELECT bal FROM acct WHERE id = 1")

	mustTx(t, w, "BEGIN")
	mustTx(t, w, "UPDATE acct SET bal = 999 WHERE id = 1")
	res := mustTx(t, w, "SELECT bal FROM acct WHERE id = 1")
	if got := res.Rows[0][0].AsInt(); got != 999 {
		t.Fatalf("writer read its own write as %d, want 999", got)
	}
	res = mustTx(t, r, "SELECT bal FROM acct WHERE id = 1")
	if got := res.Rows[0][0].AsInt(); got != 100 {
		t.Fatalf("snapshot reader saw uncommitted %d, want 100", got)
	}
	mustTx(t, w, "COMMIT")
	res = mustTx(t, r, "SELECT bal FROM acct WHERE id = 1")
	if got := res.Rows[0][0].AsInt(); got != 999 {
		t.Fatalf("post-commit snapshot saw %d, want 999", got)
	}
}

// TestMVCCSnapshotSeesRolledBackNothing: a rollback restores the table
// without publishing a version, so the pre-transaction snapshot stays
// valid and no reader ever sees the undone rows.
func TestMVCCSnapshotSeesRolledBackNothing(t *testing.T) {
	db := mvccDB(t)
	w := db.NewSession()
	defer w.Close()
	r := db.NewSession()
	defer r.Close()

	// Warm the snapshot.
	mustTx(t, r, "SELECT bal FROM acct WHERE id = 1")

	mustTx(t, w, "BEGIN")
	mustTx(t, w, "INSERT INTO acct (id, bal) VALUES (3, 7)")
	mustTx(t, w, "ROLLBACK")

	res := mustTx(t, r, "SELECT COUNT(*) FROM acct")
	if got := res.Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("snapshot saw %d rows after rollback, want 2", got)
	}
}

// TestMVCCStatsCounters pins the counter semantics: every snapshot-served
// SELECT increments SnapshotReads once, and each table it served without
// touching the lock manager increments LockBypasses.
func TestMVCCStatsCounters(t *testing.T) {
	db := mvccDB(t)
	s := db.NewSession()
	defer s.Close()

	before := db.MVCCStats()
	mustTx(t, s, "SELECT * FROM acct") // cold: refresh, no bypass
	mid := db.MVCCStats()
	if mid.SnapshotReads != before.SnapshotReads+1 {
		t.Fatalf("SnapshotReads %d, want %d", mid.SnapshotReads, before.SnapshotReads+1)
	}
	if mid.Refreshes != before.Refreshes+1 {
		t.Fatalf("Refreshes %d, want %d", mid.Refreshes, before.Refreshes+1)
	}
	for i := 0; i < 5; i++ {
		mustTx(t, s, "SELECT * FROM acct") // warm: pure bypass
	}
	after := db.MVCCStats()
	if after.LockBypasses != mid.LockBypasses+5 {
		t.Fatalf("LockBypasses %d, want %d", after.LockBypasses, mid.LockBypasses+5)
	}
	if after.Refreshes != mid.Refreshes {
		t.Fatalf("warm reads rebuilt snapshots: %+v", after)
	}
}

// TestMVCCResultsImmutableAfterWrite: a result handed to a reader must not
// change when a later transaction updates the row — the copy-on-write
// contract that lets results alias storage.
func TestMVCCResultsImmutableAfterWrite(t *testing.T) {
	db := mvccDB(t)
	s := db.NewSession()
	defer s.Close()
	res := mustTx(t, s, "SELECT id, bal FROM acct ORDER BY id")
	mustTx(t, s, "UPDATE acct SET bal = 0 WHERE id = 1")
	if got := res.Rows[0][1].AsInt(); got != 100 {
		t.Fatalf("held result mutated by later write: bal %d, want 100", got)
	}
	for i := 0; i < 3; i++ {
		mustTx(t, s, fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = 2", i))
	}
	if got := res.Rows[1][1].AsInt(); got != 100 {
		t.Fatalf("held result mutated by later writes: bal %d, want 100", got)
	}
}

// lockCycleDB is the buyconfirm shape: a transaction writes items and then
// bids, while other work wants both tables at once.
func lockCycleDB(t *testing.T) *DB {
	t.Helper()
	db, s := testDB(t)
	defer s.Close()
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 0)")
	return db
}

// buyLoop runs BEGIN · UPDATE items · INSERT bids · COMMIT until stop,
// returning the completed iterations.
func buyLoop(t *testing.T, db *DB, stop *atomic.Bool) int {
	s := db.NewSession()
	defer s.Close()
	n := 0
	for ; !stop.Load(); n++ {
		for _, q := range []string{
			"BEGIN",
			"UPDATE items SET stock = stock + 1 WHERE id = 1",
			"INSERT INTO bids (item_id, user_id, bid) VALUES (1, 1, 1)",
			"COMMIT",
		} {
			if _, err := s.Exec(q); err != nil {
				t.Errorf("txn iteration %d, %s: %v", n, q, err)
				return n
			}
		}
	}
	return n
}

// TestLiveJoinNeverCyclesWithTxn: an auto-commit join over two write-hot
// tables, against a transaction writing the same two. When such a join read
// the tables under read locks, waiting for one while holding the other made
// a lock cycle only the transaction's timeout could break, which aborted one
// purchase per timeout and starved the reader; a read now takes no lock, and
// this holds it to that.
func TestLiveJoinNeverCyclesWithTxn(t *testing.T) {
	db := lockCycleDB(t)
	db.SetLockWaitTimeout(100 * time.Millisecond)
	var stop atomic.Bool
	var txns, joins int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		txns = buyLoop(t, db, &stop)
	}()
	go func() {
		defer wg.Done()
		s := db.NewSession()
		defer s.Close()
		for ; !stop.Load(); joins++ {
			if _, err := s.Exec("SELECT COUNT(*) FROM bids JOIN items ON bids.item_id = items.id"); err != nil {
				t.Errorf("join %d: %v", joins, err)
				return
			}
		}
	}()
	time.Sleep(time.Second)
	stop.Store(true)
	wg.Wait()
	if n := db.TxnStats().DeadlockTimeouts; n != 0 {
		t.Errorf("%d transactions aborted on a lock-wait timeout", n)
	}
	if txns < 20 || joins < 20 {
		t.Errorf("starved: %d transactions, %d joins in 1s", txns, joins)
	}
}

// TestReadsReturnToSnapshotsAfterWritesStop pins the defect the one read
// path closes: the old refresh policy counted hits only on a current
// snapshot, so the first snapshot that died before serving two reads sent
// its table to the locked path for the life of the process. Writes, then
// reads with no write in between: every read is a snapshot read and at most
// one of them clones.
func TestReadsReturnToSnapshotsAfterWritesStop(t *testing.T) {
	db := mvccDB(t)
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, "SELECT * FROM acct")
	mustTx(t, s, "UPDATE acct SET bal = bal + 1 WHERE id = 1")
	mustTx(t, s, "UPDATE acct SET bal = bal - 1 WHERE id = 1")
	before := db.MVCCStats()
	for i := 0; i < 1000; i++ {
		mustTx(t, s, "SELECT bal FROM acct WHERE id = 2")
	}
	after := db.MVCCStats()
	if got := after.SnapshotReads - before.SnapshotReads; got != 1000 {
		t.Errorf("%d of 1000 reads after the writes stopped were snapshot reads", got)
	}
	if got := after.Refreshes - before.Refreshes; got > 1 {
		t.Errorf("%d refreshes for 1000 reads of an unchanging table, want at most 1", got)
	}
	if got := after.LockBypasses - before.LockBypasses; got < 999 {
		t.Errorf("%d lock bypasses, want at least 999", got)
	}
}

// TestSnapshotReadsCountEverySelectOutsideOwnWrites: SnapshotReads is the
// number of SELECTs that read no fork of their own transaction — auto-commit
// or inside a transaction, of a cold, warm or write-held table — which is
// what makes snapshot_read_frac the share of statements that are such reads.
func TestSnapshotReadsCountEverySelectOutsideOwnWrites(t *testing.T) {
	db := txnDB(t)
	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()
	step := func(s *Session, q string, counted bool) {
		t.Helper()
		before := db.MVCCStats().SnapshotReads
		mustTx(t, s, q)
		if got := db.MVCCStats().SnapshotReads - before; (got == 1) != counted || got > 1 {
			t.Errorf("%s moved SnapshotReads by %d, want counted = %v", q, got, counted)
		}
	}
	step(a, "SELECT * FROM items", true) // cold
	step(a, "SELECT * FROM items", true) // warm
	step(a, "UPDATE items SET qty = 1 WHERE id = 1", false)
	step(a, "SELECT * FROM items", true) // stale view
	step(a, "BEGIN", false)
	step(a, "SELECT * FROM items", true) // in a transaction that wrote nothing yet
	step(a, "INSERT INTO audit (item, delta) VALUES (1, 1)", false)
	step(a, "SELECT * FROM items", true)                                        // it wrote audit, not items
	step(a, "SELECT * FROM audit", false)                                       // its own fork
	step(a, "SELECT a.delta FROM audit a JOIN items i ON i.id = a.item", false) // one fork is enough
	step(b, "SELECT * FROM audit", true)                                        // another session: the table is write-held, the read is not
	step(b, "SELECT a.delta FROM audit a JOIN items i ON i.id = a.item", true)
	step(a, "ROLLBACK", false)
	step(a, "SELECT * FROM audit", true)
}

// TestReadersNeverWaitForTableLock: with a transaction holding the write
// locks of two write-hot tables, an auto-commit join over both and the reads
// of a second transaction (itself holding a third table) return the last
// committed rows at once — no lock wait is recorded, nobody is aborted.
// Before reads left the lock manager the join blocked until the holder
// ended and the second transaction was aborted on its timeout.
func TestReadersNeverWaitForTableLock(t *testing.T) {
	db := New()
	s := db.NewSession()
	defer s.Close()
	for _, q := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(16), stock INT)",
		"CREATE TABLE order_line (id INT PRIMARY KEY AUTO_INCREMENT, item_id INT, qty INT)",
		"CREATE INDEX ol_item ON order_line (item_id)",
		"CREATE TABLE cart (id INT PRIMARY KEY AUTO_INCREMENT, n INT)",
		"INSERT INTO items (name, stock) VALUES ('a', 10), ('b', 20)",
		"INSERT INTO order_line (item_id, qty) VALUES (1, 1), (2, 2)",
	} {
		mustTx(t, s, q)
	}
	// Write-hot: every snapshot dies after one read.
	for i := 0; i < 3; i++ {
		mustTx(t, s, "UPDATE items SET stock = stock + 0 WHERE id = 1")
		mustTx(t, s, "SELECT * FROM items")
		mustTx(t, s, "UPDATE order_line SET qty = qty + 0 WHERE id = 1")
		mustTx(t, s, "SELECT * FROM order_line")
	}
	db.SetLockWaitTimeout(30 * time.Millisecond)
	const join = "SELECT ol.qty, i.stock FROM order_line ol JOIN items i ON ol.item_id = i.id"
	committed := fmt.Sprint(mustTx(t, s, join).Rows)

	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()
	mustTx(t, a, "BEGIN")
	mustTx(t, a, "UPDATE items SET stock = stock - 1 WHERE id = 1")
	mustTx(t, a, "INSERT INTO order_line (item_id, qty) VALUES (1, 99)")
	mustTx(t, b, "BEGIN")
	mustTx(t, b, "INSERT INTO cart (n) VALUES (1)")
	before := db.TxnStats()

	// A read that met a's locks would wait for a forever (auto-commit) or
	// for the timeout (b): the watchdog is only there to fail instead.
	read := func(s *Session, q string) string {
		t.Helper()
		type outcome struct {
			rows string
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := s.Exec(q)
			if err != nil {
				done <- outcome{err: err}
				return
			}
			done <- outcome{rows: fmt.Sprint(res.Rows)}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("%s: %v", q, o.err)
			}
			return o.rows
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited for a write lock", q)
			return ""
		}
	}
	if got := read(s, join); got != committed {
		t.Errorf("auto-commit join saw %s, want the committed %s", got, committed)
	}
	if got := read(b, join); got != committed {
		t.Errorf("join inside a transaction saw %s, want the committed %s", got, committed)
	}
	if got := read(b, "SELECT stock FROM items WHERE id = 1"); got != "[[10]]" {
		t.Errorf("point read inside a transaction saw %s, want the committed [[10]]", got)
	}
	if !b.InTxn() {
		t.Error("the reading transaction was aborted")
	}
	if after := db.TxnStats(); after.LockWaitNanos != before.LockWaitNanos || after.DeadlockTimeouts != before.DeadlockTimeouts {
		t.Errorf("reads met the lock manager: %+v -> %+v", before, after)
	}
	mustTx(t, a, "COMMIT")
	mustTx(t, b, "COMMIT")
	if got, want := read(s, join), "[[1 9] [2 20] [99 9]]"; got != want {
		t.Errorf("after the holder committed a fresh read saw %s, want %s", got, want)
	}
}
