package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// txnDB builds a small two-table database for transaction tests.
func txnDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, `CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32), qty INT)`)
	mustTx(t, s, `CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, item INT, delta INT)`)
	mustTx(t, s, `CREATE UNIQUE INDEX items_name ON items (name)`)
	for i := 1; i <= 5; i++ {
		mustTx(t, s, "INSERT INTO items (name, qty) VALUES (?, ?)",
			String(fmt.Sprintf("item-%d", i)), Int(10))
	}
	return db
}

func mustTx(t *testing.T, s *Session, q string, args ...Value) *Result {
	t.Helper()
	res, err := s.Exec(q, args...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// dump renders the full database state — rows in scan order plus the
// counters an insert would consume next — so bit-identical restoration is
// assertable as string equality.
func dump(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	s := db.NewSession()
	defer s.Close()
	for _, name := range db.TableNames() {
		res, err := s.Exec("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table(name)
		fmt.Fprintf(&b, "%s nextID=%d nextAI=%d %v\n", name, tab.nextID, tab.nextAI, res.Rows)
	}
	return b.String()
}

func TestTxnCommitPersists(t *testing.T) {
	db := txnDB(t)
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, "BEGIN")
	if !s.InTxn() {
		t.Fatal("no txn open after BEGIN")
	}
	mustTx(t, s, "INSERT INTO items (name, qty) VALUES ('six', 6)")
	mustTx(t, s, "UPDATE items SET qty = qty - 1 WHERE id = 1")
	mustTx(t, s, "COMMIT")
	if s.InTxn() {
		t.Fatal("txn still open after COMMIT")
	}
	res := mustTx(t, s, "SELECT qty FROM items WHERE name = 'six'")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 6 {
		t.Fatalf("committed insert missing: %v", res.Rows)
	}
	res = mustTx(t, s, "SELECT qty FROM items WHERE id = 1")
	if res.Rows[0][0].AsInt() != 9 {
		t.Fatalf("committed update missing: %v", res.Rows)
	}
	st := db.Telemetry()
	if st.Commits != 1 || st.Aborts != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestTxnRollbackRestoresBitIdentical is the core property: after ROLLBACK
// the database — rows, scan order, indexes, AUTO_INCREMENT and rowid
// counters — matches the pre-transaction state exactly.
func TestTxnRollbackRestoresBitIdentical(t *testing.T) {
	db := txnDB(t)
	s := db.NewSession()
	defer s.Close()
	before := dump(t, db)

	mustTx(t, s, "BEGIN")
	mustTx(t, s, "INSERT INTO items (name, qty) VALUES ('doomed', 1)")
	mustTx(t, s, "UPDATE items SET qty = 99, name = 'renamed' WHERE id = 2")
	mustTx(t, s, "DELETE FROM items WHERE id = 4")
	mustTx(t, s, "INSERT INTO audit (item, delta) VALUES (2, -1), (3, -2)")
	mustTx(t, s, "ROLLBACK")

	if after := dump(t, db); after != before {
		t.Fatalf("rollback did not restore state:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// The unique index must have forgotten the aborted names and remember
	// the restored ones.
	if res := mustTx(t, s, "SELECT id FROM items WHERE name = 'renamed'"); len(res.Rows) != 0 {
		t.Fatalf("aborted update visible via index: %v", res.Rows)
	}
	if res := mustTx(t, s, "SELECT id FROM items WHERE name = 'item-2'"); len(res.Rows) != 1 {
		t.Fatalf("restored row missing from index: %v", res.Rows)
	}
	// A fresh insert continues the original AUTO_INCREMENT sequence.
	res := mustTx(t, s, "INSERT INTO items (name, qty) VALUES ('after', 1)")
	if res.LastInsertID != 6 {
		t.Fatalf("post-rollback LastInsertID %d, want 6", res.LastInsertID)
	}
}

// TestTxnStatementAtomicity: a statement failing midway is undone back to
// its own start while the transaction's earlier work survives.
func TestTxnStatementAtomicity(t *testing.T) {
	db := txnDB(t)
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, "BEGIN")
	mustTx(t, s, "INSERT INTO items (name, qty) VALUES ('keep', 1)")
	// Second row collides with the unique name index: row one of this
	// statement must be undone, the 'keep' row must not.
	_, err := s.Exec("INSERT INTO items (name, qty) VALUES ('fresh', 1), ('keep', 2)")
	if err == nil {
		t.Fatal("duplicate key must fail")
	}
	res := mustTx(t, s, "SELECT COUNT(*) FROM items WHERE name = 'fresh'")
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatal("failed statement left a partial row")
	}
	mustTx(t, s, "COMMIT")
	res = mustTx(t, s, "SELECT qty FROM items WHERE name = 'keep'")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("earlier statement lost: %v", res.Rows)
	}
}

// TestTxnWriteLocksHeldUntilCommit: a second session's write to a table the
// transaction wrote blocks until COMMIT.
func TestTxnWriteLocksHeldUntilCommit(t *testing.T) {
	db := txnDB(t)
	s1 := db.NewSession()
	defer s1.Close()
	mustTx(t, s1, "BEGIN")
	mustTx(t, s1, "UPDATE items SET qty = 1 WHERE id = 1")

	done := make(chan error, 1)
	go func() {
		s2 := db.NewSession()
		defer s2.Close()
		_, err := s2.Exec("UPDATE items SET qty = 2 WHERE id = 1")
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("concurrent write completed while the transaction held the lock")
	case <-time.After(30 * time.Millisecond):
	}
	mustTx(t, s1, "COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	res := mustTx(t, s1, "SELECT qty FROM items WHERE id = 1")
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("writes misordered: %v", res.Rows)
	}
}

// TestTxnDeadlockTimeoutAborts: two transactions locking two tables in
// opposite orders form a cycle; the wait timeout must abort one (rolling it
// back completely) instead of hanging.
func TestTxnDeadlockTimeoutAborts(t *testing.T) {
	db := txnDB(t)
	db.SetLockWaitTimeout(40 * time.Millisecond)
	before := dump(t, db)

	s1, s2 := db.NewSession(), db.NewSession()
	defer s1.Close()
	defer s2.Close()
	mustTx(t, s1, "BEGIN")
	mustTx(t, s2, "BEGIN")
	mustTx(t, s1, "UPDATE items SET qty = 0 WHERE id = 1")
	mustTx(t, s2, "UPDATE audit SET delta = 0 WHERE id = 1")

	errc := make(chan error, 2)
	go func() { _, err := s1.Exec("INSERT INTO audit (item, delta) VALUES (1, 1)"); errc <- err }()
	go func() { _, err := s2.Exec("INSERT INTO items (name, qty) VALUES ('dl', 1)"); errc <- err }()
	e1, e2 := <-errc, <-errc
	aborted := 0
	for _, err := range []error{e1, e2} {
		if err != nil {
			if !errors.Is(err, ErrLockWaitTimeout) {
				t.Fatalf("want lock wait timeout, got %v", err)
			}
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("deadlock resolved without any abort")
	}
	if db.Telemetry().DeadlockTimeouts != int64(aborted) {
		t.Fatalf("deadlock counter %d, want %d", db.Telemetry().DeadlockTimeouts, aborted)
	}
	// Finish the survivors; aborted transactions are already rolled back
	// (their sessions are back in autocommit).
	s1.Exec("COMMIT")
	s2.Exec("COMMIT")
	if aborted == 2 {
		if after := dump(t, db); after != before {
			t.Fatalf("both aborted but state changed:\n%s\nvs\n%s", before, after)
		}
	}
}

// TestTxnImplicitBoundaries pins MySQL's implicit rules: BEGIN commits an
// open transaction, DDL commits too, COMMIT/ROLLBACK without a transaction
// are no-ops, and a closing session rolls back.
func TestTxnImplicitBoundaries(t *testing.T) {
	db := txnDB(t)
	s := db.NewSession()
	mustTx(t, s, "COMMIT")   // no-op
	mustTx(t, s, "ROLLBACK") // no-op
	mustTx(t, s, "BEGIN")
	mustTx(t, s, "INSERT INTO audit (item, delta) VALUES (1, 1)")
	mustTx(t, s, "BEGIN") // implicit commit of the first txn
	mustTx(t, s, "INSERT INTO audit (item, delta) VALUES (2, 2)")
	mustTx(t, s, "CREATE INDEX audit_item ON audit (item)") // implicit commit
	if s.InTxn() {
		t.Fatal("DDL left the transaction open")
	}
	if got := mustTx(t, s, "SELECT COUNT(*) FROM audit").Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("audit rows %d, want 2 (both implicitly committed)", got)
	}
	mustTx(t, s, "BEGIN")
	mustTx(t, s, "INSERT INTO audit (item, delta) VALUES (3, 3)")
	s.Close() // disconnect: auto-ROLLBACK
	s2 := db.NewSession()
	defer s2.Close()
	if got := mustTx(t, s2, "SELECT COUNT(*) FROM audit").Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("audit rows %d after disconnect, want 2 (open txn rolled back)", got)
	}
	if db.Telemetry().Aborts == 0 {
		t.Fatal("disconnect rollback not counted")
	}
}

// TestTxnReadYourWrites: reads inside the transaction see its uncommitted
// writes; reads from another session block on the write lock rather than
// observing them.
func TestTxnReadYourWrites(t *testing.T) {
	db := txnDB(t)
	db.SetLockWaitTimeout(5 * time.Second)
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, "BEGIN")
	mustTx(t, s, "UPDATE items SET qty = 77 WHERE id = 3")
	res := mustTx(t, s, "SELECT qty FROM items WHERE id = 3")
	if res.Rows[0][0].AsInt() != 77 {
		t.Fatalf("own write invisible: %v", res.Rows)
	}
	// A joined read (items write-locked by us, audit not) still works.
	mustTx(t, s, "INSERT INTO audit (item, delta) VALUES (3, 67)")
	res = mustTx(t, s, `SELECT a.delta FROM audit a JOIN items i ON i.id = a.item WHERE i.qty = 77`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 67 {
		t.Fatalf("joined read inside txn: %v", res.Rows)
	}
	mustTx(t, s, "ROLLBACK")
}

// TestTxnRowidReuseNoDuplicates is the regression test for the rowOrder
// compaction bug: an aborted INSERT restores the rowid counter, the next
// transaction reuses the id, and — without the undo path compacting the
// stale rowOrder entry — scans emitted the reused row twice. No scan runs
// between abort and reuse here, which is what hid the bug from sequential
// tests.
func TestTxnRowidReuseNoDuplicates(t *testing.T) {
	db := txnDB(t)
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, "BEGIN")
	mustTx(t, s, "INSERT INTO audit (item, delta) VALUES (1, 100)")
	mustTx(t, s, "ROLLBACK")
	// No scan between the abort and the reuse.
	mustTx(t, s, "BEGIN")
	mustTx(t, s, "INSERT INTO audit (item, delta) VALUES (1, 200)")
	mustTx(t, s, "COMMIT")
	res := mustTx(t, s, "SELECT id, delta FROM audit")
	if len(res.Rows) != 1 {
		t.Fatalf("audit rows %v, want exactly one (reused rowid emitted twice?)", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsInt() != 200 {
		t.Fatalf("unexpected surviving row: %v", res.Rows)
	}
}

// TestTxnConcurrentAbortsConverge hammers two tables from several sessions
// with a mix of commits and aborts (run with -race): the final state must
// reflect committed work only.
func TestTxnConcurrentAbortsConverge(t *testing.T) {
	db := txnDB(t)
	const workers, rounds = 6, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < rounds; i++ {
				if _, err := s.Exec("BEGIN"); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Exec("UPDATE items SET qty = qty - 1 WHERE id = 1"); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Exec("INSERT INTO audit (item, delta) VALUES (?, ?)",
					Int(1), Int(int64(w*rounds+i))); err != nil {
					t.Error(err)
					return
				}
				q := "COMMIT"
				if i%3 == 0 {
					q = "ROLLBACK"
				}
				if _, err := s.Exec(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := db.NewSession()
	defer s.Close()
	commits := int64(0)
	for i := 0; i < rounds; i++ {
		if i%3 != 0 {
			commits += workers
		}
	}
	if got := mustTx(t, s, "SELECT COUNT(*) FROM audit").Rows[0][0].AsInt(); got != commits {
		t.Fatalf("audit rows %d, want %d", got, commits)
	}
	if got := mustTx(t, s, "SELECT qty FROM items WHERE id = 1").Rows[0][0].AsInt(); got != 10-commits {
		t.Fatalf("qty %d, want %d", got, 10-commits)
	}
	// Every surviving rowid is unique.
	res := mustTx(t, s, "SELECT id FROM audit")
	seen := make(map[int64]bool)
	for _, r := range res.Rows {
		id := r[0].AsInt()
		if seen[id] {
			t.Fatalf("duplicate rowid %d in scan", id)
		}
		seen[id] = true
	}
}
