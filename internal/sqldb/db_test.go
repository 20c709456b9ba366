package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// testDB builds a small schema used across tests.
func testDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := New()
	s := db.NewSession()
	stmts := []string{
		`CREATE TABLE items (
			id INT PRIMARY KEY AUTO_INCREMENT,
			name VARCHAR(100) NOT NULL,
			category INT,
			price FLOAT,
			stock INT
		)`,
		`CREATE INDEX idx_cat ON items (category)`,
		`CREATE TABLE bids (
			id INT PRIMARY KEY AUTO_INCREMENT,
			item_id INT NOT NULL,
			user_id INT NOT NULL,
			bid FLOAT
		)`,
		`CREATE INDEX idx_item ON bids (item_id)`,
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return db, s
}

func mustExec(t *testing.T, s *Session, q string, args ...Value) *Result {
	t.Helper()
	r, err := s.Exec(q, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return r
}

func TestInsertSelect(t *testing.T) {
	db, s := testDB(t)
	r := mustExec(t, s, "INSERT INTO items (name, category, price, stock) VALUES ('go book', 3, ?, 10)", Float(29.5))
	if r.RowsAffected != 1 || r.LastInsertID != 1 {
		t.Fatalf("insert result: %+v", r)
	}
	mustExec(t, s, "INSERT INTO items (name, category, price, stock) VALUES ('db book', 3, ?, 5), ('net book', 4, ?, 0)", Float(49), Float(19))
	got := mustExec(t, s, "SELECT name, price FROM items WHERE category = 3 ORDER BY price DESC")
	if len(got.Rows) != 2 {
		t.Fatalf("rows: %+v", got.Rows)
	}
	if got.Rows[0][0].AsString() != "db book" || got.Rows[1][0].AsString() != "go book" {
		t.Fatalf("order: %+v", got.Rows)
	}
	if got.Columns[0] != "name" || got.Columns[1] != "price" {
		t.Fatalf("columns: %v", got.Columns)
	}
	// An INSERT names its columns, and a float reaches it as a '?' argument.
	mustNotPrepare(t, db, s, "INSERT INTO items VALUES (9, 'x', 1, 1.5, 1)", "INSERT without a column list")
	mustNotPrepare(t, db, s, "INSERT INTO items (name, price) VALUES ('x', 1.5)", "float literal")
}

// TestSessionExecerForwards pins the deprecated SessionExecer adapter: its
// Exec is the session's own.
func TestSessionExecerForwards(t *testing.T) {
	_, s := testDB(t)
	var ex Execer = SessionExecer{S: s}
	if r, err := ex.Exec("INSERT INTO items (name) VALUES (?)", String("via adapter")); err != nil || r.LastInsertID != 1 {
		t.Fatalf("adapter insert: %v %+v", err, r)
	}
	if got := mustExec(t, s, "SELECT name FROM items WHERE id = 1"); got.Rows[0][0].AsString() != "via adapter" {
		t.Fatalf("session sees %+v", got.Rows)
	}
}

func TestAutoIncrement(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (id, name) VALUES (10, 'explicit')")
	r := mustExec(t, s, "INSERT INTO items (name) VALUES ('auto')")
	if r.LastInsertID != 11 {
		t.Fatalf("auto id %d, want 11", r.LastInsertID)
	}
}

func TestSelectStarAndParams(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, category) VALUES ('a', 1), ('b', 2)")
	got := mustExec(t, s, "SELECT * FROM items WHERE category = ?", Int(2))
	if len(got.Rows) != 1 || got.Rows[0][1].AsString() != "b" {
		t.Fatalf("rows: %+v", got.Rows)
	}
	if len(got.Columns) != 5 {
		t.Fatalf("star columns: %v", got.Columns)
	}
}

func TestUpdate(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, stock, price) VALUES ('a', 5, ?), ('b', 1, ?)", Float(2), Float(3))
	r := mustExec(t, s, "UPDATE items SET stock = stock - 1, price = price + price WHERE name = 'a'")
	if r.RowsAffected != 1 {
		t.Fatalf("affected %d", r.RowsAffected)
	}
	got := mustExec(t, s, "SELECT stock, price FROM items WHERE name = 'a'")
	if got.Rows[0][0].AsInt() != 4 || got.Rows[0][1].AsFloat() != 4.0 {
		t.Fatalf("updated row: %+v", got.Rows[0])
	}
}

func TestUpdateIndexMaintenance(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, category) VALUES ('a', 1)")
	mustExec(t, s, "UPDATE items SET category = 9 WHERE name = 'a'")
	if got := mustExec(t, s, "SELECT id FROM items WHERE category = 1"); len(got.Rows) != 0 {
		t.Fatalf("stale index entry: %+v", got.Rows)
	}
	if got := mustExec(t, s, "SELECT id FROM items WHERE category = 9"); len(got.Rows) != 1 {
		t.Fatalf("missing index entry: %+v", got.Rows)
	}
}

func TestDelete(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, category) VALUES ('a', 1), ('b', 1), ('c', 2)")
	r := mustExec(t, s, "DELETE FROM items WHERE category = 1")
	if r.RowsAffected != 2 {
		t.Fatalf("affected %d", r.RowsAffected)
	}
	got := mustExec(t, s, "SELECT COUNT(*) FROM items")
	if got.Rows[0][0].AsInt() != 1 {
		t.Fatalf("count after delete: %+v", got.Rows)
	}
}

func TestJoinWithIndex(t *testing.T) {
	db, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, category) VALUES ('a', 1), ('b', 2)")
	mustExec(t, s, "INSERT INTO bids (item_id, user_id, bid) VALUES (1, 100, ?), (1, 101, ?), (2, 100, ?)", Float(5), Float(6), Float(9))
	got := mustExec(t, s, `SELECT i.name, b.bid FROM items i
		JOIN bids b ON b.item_id = i.id WHERE i.id = 1 ORDER BY b.bid DESC`)
	if len(got.Rows) != 2 || got.Rows[0][1].AsFloat() != 6.0 {
		t.Fatalf("join rows: %+v", got.Rows)
	}
	// One JOIN, on a column equality, and not under SELECT *.
	mustNotPrepare(t, db, s, `SELECT i.name FROM items i JOIN bids b ON b.item_id = i.id
		JOIN bids c ON c.item_id = i.id`, "more than one JOIN")
	mustNotPrepare(t, db, s, "SELECT i.name FROM items i JOIN bids b ON b.item_id = 1", "JOIN ON other than column = column")
	mustNotPrepare(t, db, s, "SELECT * FROM items i JOIN bids b ON b.item_id = i.id", "SELECT * over a JOIN")
}

// TestJoinShadowedAlias: the FROM table is aliased and a joined table takes
// the FROM table's name as its alias. A predicate on that alias belongs to
// the joined table; it must not narrow the FROM table's candidates.
func TestJoinShadowedAlias(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "CREATE TABLE b (id INT PRIMARY KEY, category INT)")
	mustExec(t, s, "INSERT INTO items (name, category) VALUES ('a', 1), ('b', 2)")
	mustExec(t, s, "INSERT INTO b (id, category) VALUES (1, 7), (2, 7)")
	got := mustExec(t, s, "SELECT x.name FROM items x JOIN b items ON items.id = x.id WHERE items.category = 7 ORDER BY x.name")
	if fmt.Sprint(got.Rows) != `[["a"] ["b"]]` {
		t.Fatalf("shadowed alias join: %v", got.Rows)
	}
}

// TestAggregates: COUNT(*) is the one aggregate — one row, one column
// named count — over a WHERE and over a join.
func TestAggregates(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name) VALUES ('a'), ('b')")
	mustExec(t, s, "INSERT INTO bids (item_id, user_id, bid) VALUES (1,1,?),(1,2,?),(2,1,?)", Float(2), Float(4), Float(10))
	got := mustExec(t, s, "SELECT COUNT(*) FROM bids WHERE item_id = 1")
	if len(got.Rows) != 1 || got.Rows[0][0].AsInt() != 2 || strings.Join(got.Columns, ",") != "count" {
		t.Fatalf("count: %v %+v", got.Columns, got.Rows)
	}
	got = mustExec(t, s, "SELECT COUNT(*) FROM items i JOIN bids b ON b.item_id = i.id WHERE b.user_id = 1")
	if got.Rows[0][0].AsInt() != 2 {
		t.Fatalf("count over a join: %+v", got.Rows)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	_, s := testDB(t)
	got := mustExec(t, s, "SELECT COUNT(*) FROM bids")
	if len(got.Rows) != 1 || got.Rows[0][0].AsInt() != 0 {
		t.Fatalf("empty count: %+v", got.Rows)
	}
}

// mustNotPrepare checks that q fails at PREPARE with an error naming
// clause, and that the plan cache keeps nothing for it.
func mustNotPrepare(t *testing.T, db *DB, s *Session, q, clause string) {
	t.Helper()
	before := db.PlanCacheStats().Size
	if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), clause) {
		t.Fatalf("Exec(%q) = %v, want a parse error naming %s", q, err, clause)
	}
	if after := db.PlanCacheStats().Size; after != before {
		t.Fatalf("plan cache grew %d -> %d on a statement that does not parse", before, after)
	}
}

// TestGroupBy: GROUP BY, and the implicit grouping of COUNT(*) beside a
// column, fail at PREPARE; SUM, MIN, MAX, AVG and COUNT(expr) likewise.
func TestGroupBy(t *testing.T) {
	db, s := testDB(t)
	mustExec(t, s, "INSERT INTO bids (item_id, user_id, bid) VALUES (1,1,?),(1,2,?),(2,1,?)", Float(2), Float(4), Float(10))
	mustNotPrepare(t, db, s, "SELECT item_id, COUNT(*) AS n FROM bids GROUP BY item_id ORDER BY n DESC", "GROUP BY")
	mustNotPrepare(t, db, s, "SELECT item_id, COUNT(*) FROM bids", "GROUP BY")
	for _, f := range []string{"SUM", "MIN", "MAX", "AVG"} {
		mustNotPrepare(t, db, s, "SELECT "+f+"(bid) FROM bids", f)
	}
	mustNotPrepare(t, db, s, "SELECT COUNT(bid) FROM bids", "COUNT(expr)")
}

func TestOrderByUnselectedColumn(t *testing.T) {
	db, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, price) VALUES ('cheap', ?), ('dear', ?)", Float(1), Float(9))
	got := mustExec(t, s, "SELECT name FROM items ORDER BY price DESC")
	if got.Rows[0][0].AsString() != "dear" {
		t.Fatalf("order by unselected: %+v", got.Rows)
	}
	mustNotPrepare(t, db, s, "SELECT name FROM items ORDER BY price DESC, name", "more than one ORDER BY key")
}

// TestLimitOffset: LIMIT n cuts the ordered result; an OFFSET, in either
// spelling, fails at PREPARE.
func TestLimitOffset(t *testing.T) {
	db, s := testDB(t)
	for i := 0; i < 10; i++ {
		mustExec(t, s, "INSERT INTO items (name, price) VALUES (?, ?)", String("x"), Int(int64(i)))
	}
	got := mustExec(t, s, "SELECT price FROM items ORDER BY price DESC LIMIT 3")
	if len(got.Rows) != 3 || got.Rows[0][0].AsFloat() != 9 || got.Rows[2][0].AsFloat() != 7 {
		t.Fatalf("limit: %+v", got.Rows)
	}
	if got = mustExec(t, s, "SELECT price FROM items LIMIT 100"); len(got.Rows) != 10 {
		t.Fatalf("limit past end: %+v", got.Rows)
	}
	mustNotPrepare(t, db, s, "SELECT price FROM items ORDER BY price LIMIT 3 OFFSET 4", "OFFSET")
	mustNotPrepare(t, db, s, "SELECT price FROM items ORDER BY price LIMIT 4, 3", "LIMIT offset, count")
}

// TestDistinct: SELECT DISTINCT fails at PREPARE.
func TestDistinct(t *testing.T) {
	db, s := testDB(t)
	mustNotPrepare(t, db, s, "SELECT DISTINCT category FROM items ORDER BY category", "DISTINCT")
}

// TestLikeAndIn: LIKE filters; IN, which no application sends, fails at
// PREPARE.
func TestLikeAndIn(t *testing.T) {
	db, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, category) VALUES ('golang',1),('gopher',2),('java',3)")
	got := mustExec(t, s, "SELECT name FROM items WHERE name LIKE 'go%' ORDER BY name")
	if len(got.Rows) != 2 {
		t.Fatalf("like: %+v", got.Rows)
	}
	mustNotPrepare(t, db, s, "SELECT name FROM items WHERE category IN (1, 3) ORDER BY name", "operator IN is not in the dialect")
}

// TestNullSemantics: = NULL matches nothing, a NULL operand makes + NULL
// and LIKE false; IS [NOT] NULL, which no application sends, fails at
// PREPARE. NULL reaches a statement as a '?' argument.
func TestNullSemantics(t *testing.T) {
	db, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, category) VALUES ('a', ?), ('b', 2)", Null())
	if got := mustExec(t, s, "SELECT name FROM items WHERE category = ?", Null()); len(got.Rows) != 0 {
		t.Fatalf("= NULL must match nothing: %+v", got.Rows)
	}
	mustExec(t, s, "UPDATE items SET stock = category + 1")
	if got := mustExec(t, s, "SELECT name, stock FROM items ORDER BY name"); fmt.Sprint(got.Rows) != `[["a" NULL] ["b" 3]]` {
		t.Fatalf("NULL + 1: %v", got.Rows)
	}
	if got := mustExec(t, s, "SELECT name FROM items WHERE category LIKE '%'"); len(got.Rows) != 1 {
		t.Fatalf("NULL LIKE: %+v", got.Rows)
	}
	mustNotPrepare(t, db, s, "SELECT name FROM items WHERE category = NULL", "NULL literal is not in the dialect")
	mustNotPrepare(t, db, s, "SELECT name FROM items WHERE category IS NULL", "IS [NOT] NULL is not in the dialect")
	mustNotPrepare(t, db, s, "SELECT name FROM items WHERE category IS NOT NULL", "IS [NOT] NULL is not in the dialect")
}

func TestUniqueViolation(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (id, name) VALUES (1, 'a')")
	if _, err := s.Exec("INSERT INTO items (id, name) VALUES (1, 'b')"); err == nil {
		t.Fatal("duplicate primary key must fail")
	}
	// The failed insert must not have corrupted the table.
	got := mustExec(t, s, "SELECT COUNT(*) FROM items")
	if got.Rows[0][0].AsInt() != 1 {
		t.Fatalf("row count after violation: %+v", got.Rows)
	}
}

func TestNotNullViolation(t *testing.T) {
	_, s := testDB(t)
	if _, err := s.Exec("INSERT INTO items (name) VALUES (?)", Null()); err == nil {
		t.Fatal("NULL into NOT NULL must fail")
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	_, s := testDB(t)
	if _, err := s.Exec("SELECT a FROM nope"); err == nil {
		t.Fatal("unknown table must fail")
	}
	if _, err := s.Exec("SELECT nope FROM items"); err == nil {
		t.Fatal("unknown column must fail")
	}
}

// TestLockTablesRejected: LOCK TABLES / UNLOCK TABLES are not in the dialect.
// The statement fails to parse, takes no lock, and leaves the session and
// any open transaction exactly as they were.
func TestLockTablesRejected(t *testing.T) {
	db, s := testDB(t)
	other := db.NewSession()
	defer other.Close()
	mustExec(t, other, "SELECT COUNT(*) FROM items") // builds the snapshot read below
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('pending')")
	for _, q := range []string{"LOCK TABLES items WRITE", "LOCK TABLES items READ, bids WRITE", "UNLOCK TABLES"} {
		if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "unsupported statement") {
			t.Fatalf("Exec(%q) = %v, want a parse error", q, err)
		}
		if !s.InTxn() {
			t.Fatalf("%q ended the open transaction", q)
		}
		// Not committed: the other session still sees nothing. Not holding
		// bids either: its write goes straight through.
		if n := mustExec(t, other, "SELECT COUNT(*) FROM items").Rows[0][0].AsInt(); n != 0 {
			t.Fatalf("%q committed the open transaction: %d items visible", q, n)
		}
		mustExec(t, other, "INSERT INTO bids (item_id, user_id) VALUES (1, 1)")
	}
	// Not aborted: the transaction still owns its write and can commit it.
	mustExec(t, s, "COMMIT")
	if n := mustExec(t, other, "SELECT COUNT(*) FROM items").Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("items after COMMIT = %d, want 1", n)
	}
}

// TestSessionCloseReleasesLocks: a session that closes with a transaction
// open rolls it back and frees its table locks for the next writer.
func TestSessionCloseReleasesLocks(t *testing.T) {
	db, s := testDB(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (name) VALUES ('doomed')")
	s.Close()
	// Run under the package -timeout: a leaked lock hangs this write.
	s2 := db.NewSession()
	defer s2.Close()
	mustExec(t, s2, "INSERT INTO items (name) VALUES ('next')")
	if n := mustExec(t, s2, "SELECT COUNT(*) FROM items").Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("items = %d, want 1 (the closed session's insert rolled back)", n)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db, s := testDB(t)
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 0)")
	var wg sync.WaitGroup
	const writers, increments = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < increments; i++ {
				if _, err := sess.Exec("UPDATE items SET stock = stock + 1 WHERE id = 1"); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 30; i++ {
				if _, err := sess.Exec("SELECT stock FROM items WHERE id = 1"); err != nil {
					t.Errorf("select: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got := mustExec(t, s, "SELECT stock FROM items WHERE id = 1")
	if got.Rows[0][0].AsInt() != writers*increments {
		t.Fatalf("lost updates: stock = %v, want %d", got.Rows[0][0], writers*increments)
	}
}

func TestConcurrentTxnAtomicity(t *testing.T) {
	// Sessions writing {items, bids} in opposite orders inside transactions
	// form lock cycles. None may hang — the wait timeout aborts one side,
	// which retries — and no committed increment may be lost.
	db, s := testDB(t)
	db.SetLockWaitTimeout(5 * time.Millisecond)
	mustExec(t, s, "INSERT INTO items (name, stock) VALUES ('a', 0)")
	var wg sync.WaitGroup
	const workers, rounds = 4, 15
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			stmts := []string{
				"UPDATE items SET stock = stock + 1 WHERE id = 1",
				"INSERT INTO bids (item_id, user_id) VALUES (1, 1)",
			}
			if w%2 == 1 {
				stmts[0], stmts[1] = stmts[1], stmts[0]
			}
			for i := 0; i < rounds; {
				err := func() error {
					for _, q := range append([]string{"BEGIN"}, append(stmts, "COMMIT")...) {
						if _, err := sess.Exec(q); err != nil {
							return err
						}
					}
					return nil
				}()
				switch {
				case err == nil:
					i++
				case !errors.Is(err, ErrLockWaitTimeout):
					t.Errorf("txn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, q := range []string{"SELECT stock FROM items WHERE id = 1", "SELECT COUNT(*) FROM bids"} {
		if got := mustExec(t, s, q).Rows[0][0].AsInt(); got != workers*rounds {
			t.Fatalf("%s = %d, want %d", q, got, workers*rounds)
		}
	}
}

func TestValueConversions(t *testing.T) {
	cases := []struct {
		v    Value
		i    int64
		f    float64
		s    string
		null bool
	}{
		{Int(42), 42, 42, "42", false},
		{Float(2.5), 2, 2.5, "2.5", false},
		{String("7"), 7, 7, "7", false},
		{String("abc"), 0, 0, "abc", false},
		{Null(), 0, 0, "", true},
	}
	for _, c := range cases {
		if c.v.AsInt() != c.i || c.v.AsFloat() != c.f || c.v.AsString() != c.s || c.v.IsNull() != c.null {
			t.Errorf("conversions for %v: %d %g %q %v", c.v, c.v.AsInt(), c.v.AsFloat(), c.v.AsString(), c.v.IsNull())
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	if Compare(Int(1), Float(1.0)) != 0 {
		t.Error("int/float equality")
	}
	if Compare(Null(), Int(-100)) != -1 {
		t.Error("NULL sorts first")
	}
	if Compare(String("a"), String("b")) != -1 {
		t.Error("string order")
	}
}

// Property: inserting N rows with distinct keys then querying each key via
// the index returns exactly that row — index lookups agree with full scans.
func TestIndexScanEquivalenceProperty(t *testing.T) {
	f := func(keys []int16) bool {
		db := New()
		s := db.NewSession()
		defer s.Close()
		if _, err := s.Exec("CREATE TABLE t (k INT, v INT)"); err != nil {
			return false
		}
		if _, err := s.Exec("CREATE INDEX ik ON t (k)"); err != nil {
			return false
		}
		for i, k := range keys {
			if _, err := s.Exec("INSERT INTO t (k, v) VALUES (?, ?)", Int(int64(k)), Int(int64(i))); err != nil {
				return false
			}
		}
		for _, k := range keys {
			idx, err := s.Exec("SELECT v FROM t WHERE k = ?", Int(int64(k)))
			if err != nil {
				return false
			}
			// Force a scan: k + 0 is not a column, so no index is probed.
			scan, err := s.Exec("SELECT v FROM t WHERE k + 0 = ?", Int(int64(k)))
			if err != nil {
				return false
			}
			if len(idx.Rows) != len(scan.Rows) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LIKE matching agrees with a reference implementation based on
// strings.Contains for simple %x% patterns.
func TestLikeContainsProperty(t *testing.T) {
	f := func(s, sub string) bool {
		if strings.ContainsAny(sub, "%_") || strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, "%"+sub+"%") == strings.Contains(s, sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestTableNames(t *testing.T) {
	db, _ := testDB(t)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "bids" || names[1] != "items" {
		t.Fatalf("names: %v", names)
	}
}

func TestCaseInsensitiveNames(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO ITEMS (NAME, Category) VALUES ('a', 1)")
	got := mustExec(t, s, "SELECT Name FROM Items WHERE CATEGORY = 1")
	if len(got.Rows) != 1 {
		t.Fatalf("case insensitivity: %+v", got.Rows)
	}
}
