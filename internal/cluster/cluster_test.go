package cluster

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// testReplica is one backend under test: its database and wire server.
type testReplica struct {
	db   *sqldb.DB
	srv  *wire.Server
	addr string
	dir  string // the write-ahead log's directory; empty when not durable
}

// startReplicas boots n identically seeded backends with a small table.
func startReplicas(t testing.TB, n int) []*testReplica {
	t.Helper()
	reps := make([]*testReplica, n)
	for i := range reps {
		db := sqldb.New()
		sess := db.NewSession()
		mustExec(t, sess, `CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32), qty INT)`)
		mustExec(t, sess, `CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, item INT, delta INT)`)
		for j := 1; j <= 10; j++ {
			mustExec(t, sess, "INSERT INTO items (name, qty) VALUES (?, ?)",
				sqldb.String(fmt.Sprintf("item-%d", j)), sqldb.Int(100))
		}
		sess.Close()
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

func mustExec(t testing.TB, ex sqldb.Execer, q string, args ...sqldb.Value) {
	t.Helper()
	if _, err := ex.Exec(q, args...); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

func dsnOf(reps []*testReplica) string {
	addrs := make([]string, len(reps))
	for i, r := range reps {
		addrs[i] = r.addr
	}
	return strings.Join(addrs, ",")
}

// flat reaches an unsharded client's replica set, for tests that drive its
// internals.
func flat(c *Client) *replicaSet { return c.backend.(*replicaSet) }

// eachReplicaCount runs a test of count-agnostic behaviour over one backend
// and over two: the same statement paths serve both, so the replica count is
// a row of the test, not a test of its own.
func eachReplicaCount(t *testing.T, body func(t *testing.T, reps []*testReplica)) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { body(t, startReplicas(t, n)) })
	}
}

// allReplicasAre reports whether every replica's full dump equals want.
func allReplicasAre(t *testing.T, reps []*testReplica, want string) bool {
	t.Helper()
	for _, r := range reps {
		if replicaDump(t, r) != want {
			return false
		}
	}
	return true
}

func newTestClient(t testing.TB, reps []*testReplica, cfg Config) *Client {
	t.Helper()
	cfg.DSN = dsnOf(reps)
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 4
	}
	c := NewWithConfig(cfg)
	t.Cleanup(c.Close)
	return c
}

// TestReadsLoadBalance: reads must land on every healthy replica, not just
// the first — the read-one half of read-one-write-all.
func TestReadsLoadBalance(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	for i := 0; i < 40; i++ {
		res, err := c.Exec("SELECT name FROM items WHERE id = ?", sqldb.Int(int64(1+i%10)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("row count %d", len(res.Rows))
		}
	}
	for i, r := range reps {
		if n := r.srv.Telemetry().Queries; n == 0 {
			t.Errorf("replica %d served no statements; reads did not balance", i)
		}
	}
	rs := c.ReplicaStats()
	if rs[0].Reads+rs[1].Reads != 40 {
		t.Errorf("routed reads %d+%d, want 40 total", rs[0].Reads, rs[1].Reads)
	}
	if rs[0].Writes != 0 || rs[1].Writes != 0 {
		t.Errorf("reads were counted as writes: %+v", rs)
	}
}

// TestWriteBroadcast: a write must apply on every replica, and the replicas
// must assign the same AUTO_INCREMENT ids.
func TestWriteBroadcast(t *testing.T) {
	reps := startReplicas(t, 3)
	c := newTestClient(t, reps, Config{})
	res, err := c.Exec("INSERT INTO items (name, qty) VALUES (?, ?)",
		sqldb.String("new"), sqldb.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 11 {
		t.Fatalf("LastInsertID %d, want 11", res.LastInsertID)
	}
	for i, r := range reps {
		res := queryReplica(t, r, "SELECT qty FROM items WHERE id = 11")
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 7 {
			t.Errorf("replica %d missing broadcast row: %+v", i, res.Rows)
		}
	}
}

func queryReplica(t *testing.T, r *testReplica, q string) *sqldb.Result {
	t.Helper()
	sess := r.db.NewSession()
	defer sess.Close()
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWriteOrderingUnderConcurrency hammers one row from many goroutines
// (run with -race): the per-table write-order lock must leave every replica
// with the same final state and the same row sets.
func TestWriteOrderingUnderConcurrency(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{PoolSize: 8})
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := c.Exec("UPDATE items SET qty = qty - 1 WHERE id = 1"); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Exec("INSERT INTO audit (item, delta) VALUES (?, ?)",
					sqldb.Int(1), sqldb.Int(int64(w*rounds+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	want := int64(100 - workers*rounds)
	for i, r := range reps {
		res := queryReplica(t, r, "SELECT qty FROM items WHERE id = 1")
		if got := res.Rows[0][0].AsInt(); got != want {
			t.Errorf("replica %d qty %d, want %d", i, got, want)
		}
		audit := queryReplica(t, r, "SELECT COUNT(*) FROM audit")
		if got := audit.Rows[0][0].AsInt(); got != int64(workers*rounds) {
			t.Errorf("replica %d audit rows %d, want %d", i, got, workers*rounds)
		}
	}
	// AUTO_INCREMENT assignment must agree row for row: the audit ids paired
	// with each delta are identical across replicas only if both replicas
	// applied the inserts in one global order.
	a := queryReplica(t, reps[0], "SELECT id, delta FROM audit ORDER BY id")
	b := queryReplica(t, reps[1], "SELECT id, delta FROM audit ORDER BY id")
	for i := range a.Rows {
		if a.Rows[i][0].AsInt() != b.Rows[i][0].AsInt() ||
			a.Rows[i][1].AsInt() != b.Rows[i][1].AsInt() {
			t.Fatalf("audit row %d diverged: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestSessionBracketBroadcast drives the borrowed-session path: Get, Begin,
// statements, Commit, Put. The transaction's writes must reach both
// replicas, and whatever ends it — Commit, or a second Begin on the same
// session, which commits the first — must release its cluster-side
// write-order locks and topology hold (regression: a second bracket on one
// session leaked the first's, blocking every later writer to the table).
func TestSessionBracketBroadcast(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("items"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT qty FROM items WHERE id = 2")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read in transaction: %v", err)
	}
	if _, err := s.Exec("UPDATE items SET qty = ? WHERE id = 2", sqldb.Int(55)); err != nil {
		t.Fatal(err)
	}
	// Nested Begin over a different set: the first transaction commits
	// and items' locks are released.
	if err := s.Begin("audit"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO audit (item, delta) VALUES (2, 5)"); err != nil {
		t.Fatal(err)
	}
	// A pool write to items goes through while the audit transaction is
	// still open; run under -timeout, a leaked lock hangs it.
	if _, err := c.Exec("UPDATE items SET qty = 3 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Put(s, false)
	// Nothing is ejected, so Rejoin is a no-op — but it takes the topology
	// lock exclusively, which a leaked topology hold would deadlock.
	if err := c.Rejoin(1, false); err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		for q, want := range map[string]int64{
			"SELECT qty FROM items WHERE id = 2": 55,
			"SELECT qty FROM items WHERE id = 1": 3,
			"SELECT COUNT(*) FROM audit":         1,
		} {
			if got := queryReplica(t, r, q).Rows[0][0].AsInt(); got != want {
				t.Errorf("replica %d: %s = %d, want %d", i, q, got, want)
			}
		}
	}
}

// TestFailoverMidWorkload kills one replica under load: reads must
// continue on the survivor (after one ejection), and writes must keep
// applying on the survivor under the default policy.
func TestFailoverMidWorkload(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	// Warm both replicas.
	for i := 0; i < 10; i++ {
		if _, err := c.Exec("SELECT name FROM items WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	reps[1].srv.Close() // the failure

	// Reads keep working; the dead replica is ejected on first contact.
	for i := 0; i < 20; i++ {
		if _, err := c.Exec("SELECT name FROM items WHERE id = 2"); err != nil {
			t.Fatalf("read %d after failover: %v", i, err)
		}
	}
	if h := c.Healthy(); h != 1 {
		t.Fatalf("healthy %d, want 1", h)
	}
	// Writes continue on the survivor (write-all-available).
	if _, err := c.Exec("UPDATE items SET qty = 1 WHERE id = 3"); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	res := queryReplica(t, reps[0], "SELECT qty FROM items WHERE id = 3")
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatal("write did not apply on survivor")
	}
	rs := c.ReplicaStats()
	if rs[1].Ejections != 1 || rs[1].Healthy {
		t.Fatalf("replica 1 not ejected: %+v", rs[1])
	}
}

// TestConfigBindFlags: the database flags bind into Config's own fields.
func TestConfigBindFlags(t *testing.T) {
	var cfg Config
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	cfg.BindFlags(fs)
	if err := fs.Parse([]string{"-db", "a:1,a:2", "-pool", "3", "-db-op", "1s", "-db-cache", "7"}); err != nil {
		t.Fatal(err)
	}
	if cfg.DSN != "a:1,a:2" || cfg.PoolSize != 3 || cfg.Timeouts.Op != time.Second || cfg.QueryCache != 7 {
		t.Fatalf("bound config = %+v", cfg)
	}
}

// TestStrictWritePolicy: the one write policy is write-all-available — a
// write whose broadcast is the first contact with a dead replica succeeds on
// the survivor and ejects the dead one, and write transactions keep
// committing on the survivor.
func TestStrictWritePolicy(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	// Warm the pools so the failure happens at execution, not dial.
	if _, err := c.Exec("UPDATE items SET qty = 100 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	reps[1].srv.Close()
	if _, err := c.Exec("UPDATE items SET qty = 42 WHERE id = 1"); err != nil {
		t.Fatalf("write losing a replica mid-broadcast = %v, want success on the survivor", err)
	}
	if got := queryReplica(t, reps[0], "SELECT qty FROM items WHERE id = 1").Rows[0][0].AsInt(); got != 42 {
		t.Fatalf("survivor qty = %d, want 42", got)
	}
	if rs := c.ReplicaStats(); rs[1].Ejections != 1 || rs[1].Healthy {
		t.Fatalf("dead replica not ejected once: %+v", rs[1])
	}
	if err := c.WithTx([]string{"items"}, func(tx *Session) error {
		_, err := tx.Exec("UPDATE items SET qty = 43 WHERE id = 1")
		return err
	}); err != nil {
		t.Fatalf("write transaction on the survivor: %v", err)
	}
	if got := queryReplica(t, reps[0], "SELECT qty FROM items WHERE id = 1").Rows[0][0].AsInt(); got != 43 {
		t.Fatalf("survivor qty after WithTx = %d, want 43", got)
	}
}

// TestReprepareOnReplica: a prepared statement must survive replica
// connection churn — fresh connections transparently re-prepare, including
// after ejection and rejoin (the re-prepare-on-replica regression test).
func TestReprepareOnReplica(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{PoolSize: 2})
	st := func(args ...sqldb.Value) (*sqldb.Result, error) {
		return c.Exec("SELECT name FROM items WHERE id = ?", args...)
	}
	for i := 0; i < 8; i++ {
		if _, err := st(sqldb.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	wr := func(args ...sqldb.Value) (*sqldb.Result, error) {
		return c.Exec("UPDATE items SET qty = ? WHERE id = ?", args...)
	}
	if _, err := wr(sqldb.Int(9), sqldb.Int(4)); err != nil {
		t.Fatal(err)
	}

	// Kill and restart replica 1 on the same address: every connection and
	// server-side statement id it held is gone.
	reps[1].srv.Close()
	if _, err := wr(sqldb.Int(10), sqldb.Int(4)); err != nil {
		t.Fatalf("write during outage (available policy): %v", err)
	}
	srv2 := wire.NewServer(reps[1].db, nil)
	if _, err := srv2.Listen(reps[1].addr); err != nil {
		t.Skipf("cannot rebind %s: %v", reps[1].addr, err)
	}
	t.Cleanup(func() { srv2.Close() })
	reps[1].srv = srv2

	if err := c.Rejoin(1, true); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if h := c.Healthy(); h != 2 {
		t.Fatalf("healthy %d after rejoin, want 2", h)
	}
	// The rejoined replica caught up on the write it missed...
	res := queryReplica(t, reps[1], "SELECT qty FROM items WHERE id = 4")
	if got := res.Rows[0][0].AsInt(); got != 10 {
		t.Fatalf("rejoined replica qty %d, want 10 (sync missed the write)", got)
	}
	// ...and both statements keep executing on both replicas: the new
	// connections re-prepare behind the scenes.
	before := reps[1].srv.Telemetry().Queries
	for i := 0; i < 20; i++ {
		if _, err := st(sqldb.Int(2)); err != nil {
			t.Fatalf("prepared read after rejoin: %v", err)
		}
	}
	if _, err := wr(sqldb.Int(11), sqldb.Int(5)); err != nil {
		t.Fatalf("prepared write after rejoin: %v", err)
	}
	if reps[1].srv.Telemetry().Queries == before {
		t.Fatal("rejoined replica served nothing; statements not re-prepared there")
	}
}

// TestSyncCopiesData: the replica-sync path replays tables, rows and
// AUTO_INCREMENT positions onto an empty schema.
func TestSyncCopiesData(t *testing.T) {
	reps := startReplicas(t, 1)
	src := wire.NewPool(reps[0].addr, 2)
	defer src.Close()

	dst := sqldb.New()
	sess := dst.NewSession()
	mustExec(t, sess, `CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32), qty INT)`)
	mustExec(t, sess, `CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, item INT, delta INT)`)

	tables, rows, err := Sync(src, sess, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tables != 2 || rows != 10 {
		t.Fatalf("synced %d tables / %d rows, want 2 / 10", tables, rows)
	}
	res, err := sess.Exec("SELECT COUNT(*) FROM items")
	if err != nil || res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("dst items: %v %+v", err, res)
	}
	// The next insert must continue the source's AUTO_INCREMENT sequence.
	ins, err := sess.Exec("INSERT INTO items (name, qty) VALUES ('after', 1)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.LastInsertID != 11 {
		t.Fatalf("post-sync LastInsertID %d, want 11", ins.LastInsertID)
	}
	sess.Close()
}

// TestRouteAnalysis pins the routing classifier: read or write, the
// write-ordered tables, and the texts it refuses before any connection is
// borrowed.
func TestRouteAnalysis(t *testing.T) {
	const (
		read  = "read"
		write = "write"
	)
	parseErr := func(q string) string {
		_, err := sqldb.New().NewSession().Exec(q)
		return err.Error()
	}
	cases := []struct {
		q      string
		kind   string // read, write, or the error the route refuses with
		tables string
	}{
		{"SELECT * FROM items", read, ""},
		{"  select id from items where x = ?", read, ""},
		{"SHOW TABLE STATUS", read, ""},
		{"INSERT INTO orders (a, b) VALUES (?, ?)", write, "orders"},
		{"UPDATE Items SET qty = ? WHERE id = ?", write, "items"},
		{"DELETE FROM cart_items WHERE cart = ?", write, "cart_items"},
		{"CREATE TABLE foo (id INT)", write, "foo"},
		{"CREATE UNIQUE INDEX idx_x ON bar (col)", write, "bar"},
		{"BEGIN", ErrTxnControlText.Error(), ""},
		{"COMMIT", ErrTxnControlText.Error(), ""},
		{"ROLLBACK", ErrTxnControlText.Error(), ""},
		{"ALTER TABLE t AUTO_INCREMENT OFFSET 1 STRIDE 2", write, ""},
		{"SHOW WAL STATUS", read, ""},
		// Not in the dialect: refused with the database's own parse error,
		// as a server error — the client and every replica share one parser.
		{"LOCK TABLES a READ, b WRITE", parseErr("LOCK TABLES a READ, b WRITE"), ""},
		{"UNLOCK TABLES", parseErr("UNLOCK TABLES"), ""},
		{"SELEKT 1", parseErr("SELEKT 1"), ""},
		{"DROP TABLE baz", parseErr("DROP TABLE baz"), ""},
		{"SHOW TABLES", parseErr("SHOW TABLES"), ""},
		{"start transaction", parseErr("start transaction"), ""},
		{"ROLLBACK WORK", parseErr("ROLLBACK WORK"), ""},
	}
	for _, tc := range cases {
		r := analyze(tc.q)
		kind := read
		switch {
		case r.err != nil:
			kind = r.err.Error()
			if tc.kind != ErrTxnControlText.Error() && !wire.IsServerError(r.err) {
				t.Errorf("%q refused with %T, want a *wire.ServerError", tc.q, r.err)
			}
		case r.write:
			kind = write
		}
		if kind != tc.kind {
			t.Errorf("%q: %s, want %s", tc.q, kind, tc.kind)
		}
		if got := strings.Join(r.tables, ","); got != tc.tables {
			t.Errorf("%q tables %q, want %q", tc.q, got, tc.tables)
		}
	}
}

// replicaDump renders one replica's full table state (scan order included),
// for byte-identity assertions across replicas and across aborts.
func replicaDump(t *testing.T, r *testReplica) string {
	t.Helper()
	var b strings.Builder
	sess := r.db.NewSession()
	defer sess.Close()
	for _, name := range r.db.TableNames() {
		res, err := sess.Exec("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", name, res.Rows)
	}
	return b.String()
}

// TestTxnBroadcastCommit: a committed transaction applies on every replica,
// with identical AUTO_INCREMENT assignment.
func TestTxnBroadcastCommit(t *testing.T) {
	reps := startReplicas(t, 3)
	c := newTestClient(t, reps, Config{})
	err := c.WithTx([]string{"items", "audit"}, func(tx *Session) error {
		res, err := tx.Exec("INSERT INTO items (name, qty) VALUES (?, ?)",
			sqldb.String("txn-item"), sqldb.Int(3))
		if err != nil {
			return err
		}
		if res.LastInsertID != 11 {
			t.Errorf("LastInsertID %d, want 11", res.LastInsertID)
		}
		// Read-your-writes on the pinned replica.
		sel, err := tx.Exec("SELECT qty FROM items WHERE id = 11")
		if err != nil || len(sel.Rows) != 1 || sel.Rows[0][0].AsInt() != 3 {
			t.Errorf("read-your-writes inside txn: %v %+v", err, sel)
		}
		_, err = tx.Exec("INSERT INTO audit (item, delta) VALUES (11, 3)")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := replicaDump(t, reps[0])
	for i, r := range reps[1:] {
		if got := replicaDump(t, r); got != want {
			t.Fatalf("replica %d diverged after commit:\n%s\nvs\n%s", i+1, want, got)
		}
	}
}

// TestTxnRollbackKeepsReplicasIdentical: an aborted transaction leaves all
// replicas byte-identical to the pre-transaction state.
func TestTxnRollbackKeepsReplicasIdentical(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	before := replicaDump(t, reps[0])
	sentinel := fmt.Errorf("mid-transaction failure")
	err := c.WithTx([]string{"items", "audit"}, func(tx *Session) error {
		if _, err := tx.Exec("INSERT INTO items (name, qty) VALUES ('doomed', 1)"); err != nil {
			return err
		}
		if _, err := tx.Exec("UPDATE items SET qty = 0 WHERE id = 1"); err != nil {
			return err
		}
		if _, err := tx.Exec("DELETE FROM items WHERE id = 2"); err != nil {
			return err
		}
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("WithTx error %v, want the sentinel", err)
	}
	for i, r := range reps {
		if got := replicaDump(t, r); got != before {
			t.Fatalf("replica %d not restored after abort:\nbefore\n%s\nafter\n%s", i, before, got)
		}
	}
	// The next transaction reuses the rolled-back AUTO_INCREMENT ids on
	// every replica.
	err = c.WithTx([]string{"items"}, func(tx *Session) error {
		res, err := tx.Exec("INSERT INTO items (name, qty) VALUES ('kept', 1)")
		if err != nil {
			return err
		}
		if res.LastInsertID != 11 {
			t.Errorf("post-abort LastInsertID %d, want 11", res.LastInsertID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := replicaDump(t, reps[0]), replicaDump(t, reps[1]); a != b {
		t.Fatalf("replicas diverged after post-abort insert:\n%s\nvs\n%s", a, b)
	}
}

// TestTxnContentionReplicasConverge hammers one table with concurrent
// transactions, a third of which abort (run with -race): every replica must
// end bit-identical, with only committed work visible.
func TestTxnContentionReplicasConverge(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{PoolSize: 8})
	const workers, rounds = 6, 10
	abort := fmt.Errorf("abort")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := c.WithTx([]string{"items", "audit"}, func(tx *Session) error {
					if _, err := tx.Exec("UPDATE items SET qty = qty - 1 WHERE id = 1"); err != nil {
						return err
					}
					if _, err := tx.Exec("INSERT INTO audit (item, delta) VALUES (?, ?)",
						sqldb.Int(1), sqldb.Int(int64(w*rounds+i))); err != nil {
						return err
					}
					if i%3 == 0 {
						return abort // roll the whole thing back
					}
					return nil
				})
				if err != nil && err != abort {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	commits := int64(0)
	for i := 0; i < rounds; i++ {
		if i%3 != 0 {
			commits += workers
		}
	}
	res := queryReplica(t, reps[0], "SELECT qty FROM items WHERE id = 1")
	if got := res.Rows[0][0].AsInt(); got != 100-commits {
		t.Errorf("qty %d, want %d (only committed decrements)", got, 100-commits)
	}
	audit := queryReplica(t, reps[0], "SELECT COUNT(*) FROM audit")
	if got := audit.Rows[0][0].AsInt(); got != commits {
		t.Errorf("audit rows %d, want %d", got, commits)
	}
	if a, b := replicaDump(t, reps[0]), replicaDump(t, reps[1]); a != b {
		t.Fatalf("replicas diverged under contention:\n%s\nvs\n%s", a, b)
	}
}

// TestTxnSessionEndDiscardsOpenTxn: a session returned with its transaction
// still open must not leak the transaction to the pool — the connections
// are discarded and the servers roll back.
func TestTxnSessionEndDiscardsOpenTxn(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{})
		before := replicaDump(t, reps[0])
		s, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Begin("items"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("UPDATE items SET qty = 0 WHERE id = 5"); err != nil {
			t.Fatal(err)
		}
		c.Put(s, false) // abandoned mid-transaction

		deadline := time.Now().Add(2 * time.Second)
		for !allReplicasAre(t, reps, before) {
			if time.Now().After(deadline) {
				t.Fatal("abandoned transaction survived session end")
			}
			time.Sleep(5 * time.Millisecond)
		}
		// The pool stays usable.
		if _, err := c.Exec("SELECT qty FROM items WHERE id = 5"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWithTxPanicRollsBack: a panic inside the transaction body rolls back
// and re-panics — the contract container-managed demarcation builds on.
func TestWithTxPanicRollsBack(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{})
		before := replicaDump(t, reps[0])
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic must propagate out of WithTx")
				}
			}()
			_ = c.WithTx([]string{"items"}, func(tx *Session) error {
				if _, err := tx.Exec("UPDATE items SET qty = -1 WHERE id = 1"); err != nil {
					return err
				}
				panic("business method exploded")
			})
		}()
		deadline := time.Now().Add(2 * time.Second)
		for !allReplicasAre(t, reps, before) {
			if time.Now().After(deadline) {
				t.Fatalf("panic path left transaction state:\n%s", replicaDump(t, reps[0]))
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestTxnReplicaFailureMidTxn: losing a replica mid-transaction must not
// stop the survivors from committing identically, and the failed replica's
// half-applied work dies with its connections.
func TestTxnReplicaFailureMidTxn(t *testing.T) {
	reps := startReplicas(t, 3)
	c := newTestClient(t, reps, Config{})
	err := c.WithTx([]string{"items"}, func(tx *Session) error {
		if _, err := tx.Exec("UPDATE items SET qty = 41 WHERE id = 1"); err != nil {
			return err
		}
		reps[2].srv.Close() // replica dies mid-transaction
		if _, err := tx.Exec("UPDATE items SET qty = 42 WHERE id = 1"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("transaction must survive a replica loss under the default policy: %v", err)
	}
	for i := 0; i < 2; i++ {
		res := queryReplica(t, reps[i], "SELECT qty FROM items WHERE id = 1")
		if got := res.Rows[0][0].AsInt(); got != 42 {
			t.Errorf("survivor %d qty %d, want 42", i, got)
		}
	}
	if a, b := replicaDump(t, reps[0]), replicaDump(t, reps[1]); a != b {
		t.Fatalf("survivors diverged:\n%s\nvs\n%s", a, b)
	}
	// The dead replica's sessions rolled back on close: its copy reverted
	// to the pre-transaction value.
	deadline := time.Now().Add(2 * time.Second)
	for {
		res := queryReplica(t, reps[2], "SELECT qty FROM items WHERE id = 1")
		if res.Rows[0][0].AsInt() == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replica kept half a transaction: qty %d", res.Rows[0][0].AsInt())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTxnSerializesDeclaredTables is the lost-update regression test: two
// read-modify-write transactions declaring the same table must serialize
// end to end — the engine only write-locks at the first write, so the
// declared-set cluster lock is what keeps both from reading before either
// writes. It first failed on a single backend, whose BEGIN then had a path
// of its own.
func TestTxnSerializesDeclaredTables(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{PoolSize: 8})
		const workers, rounds = 8, 15
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					err := c.WithTx([]string{"items"}, func(tx *Session) error {
						res, err := tx.Exec("SELECT qty FROM items WHERE id = 1")
						if err != nil {
							return err
						}
						// Write back a value derived from the read: lost
						// updates would make the final count fall short.
						_, err = tx.Exec("UPDATE items SET qty = ? WHERE id = 1",
							sqldb.Int(res.Rows[0][0].AsInt()+1))
						return err
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		want := int64(100 + workers*rounds)
		for i, r := range reps {
			res := queryReplica(t, r, "SELECT qty FROM items WHERE id = 1")
			if got := res.Rows[0][0].AsInt(); got != want {
				t.Fatalf("replica %d qty %d, want %d (read-modify-write transactions lost updates)", i, got, want)
			}
		}
	})
}

// TestWriteOrderSharedAcrossClients is the replicated-application-tier
// variant of the lost-update regression: a load-balanced tier runs one
// cluster client per app backend over the same DSN, so the write-order
// locks must be shared process-wide (lockRegistry) — two CLIENTS'
// read-modify-write transactions on the same table must serialize exactly
// like two sessions of one client.
func TestWriteOrderSharedAcrossClients(t *testing.T) {
	reps := startReplicas(t, 1)
	c1 := newTestClient(t, reps, Config{PoolSize: 8})
	c2 := newTestClient(t, reps, Config{PoolSize: 8})
	const workers, rounds = 8, 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := c1
		if w%2 == 1 {
			c = c2 // half the workers on each client, like two app backends
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := c.WithTx([]string{"items"}, func(tx *Session) error {
					res, err := tx.Exec("SELECT qty FROM items WHERE id = 2")
					if err != nil {
						return err
					}
					_, err = tx.Exec("UPDATE items SET qty = ? WHERE id = 2",
						sqldb.Int(res.Rows[0][0].AsInt()+1))
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res := queryReplica(t, reps[0], "SELECT qty FROM items WHERE id = 2")
	want := int64(100 + workers*rounds)
	if got := res.Rows[0][0].AsInt(); got != want {
		t.Fatalf("qty %d, want %d (cross-client transactions lost updates)", got, want)
	}
}

// otherProcessClient builds a client over cfg as a second app process would:
// with a write-order lock registry of its own. lockRegistry.m is swapped
// for the client's own map while the client is built and while it is
// closed, and the process's map is restored in between.
func otherProcessClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	swap := func(m map[string]*sharedLocks) map[string]*sharedLocks {
		lockRegistry.mu.Lock()
		defer lockRegistry.mu.Unlock()
		old := lockRegistry.m
		lockRegistry.m = m
		return old
	}
	own := map[string]*sharedLocks{}
	process := swap(own)
	c := NewWithConfig(cfg)
	swap(process)
	t.Cleanup(func() {
		process := swap(own)
		c.Close()
		swap(process)
	})
	return c
}

// TestWriteOrderDoesNotSpanRegistries pins what the write-order locks do not
// do: they live in one process, so two app processes order their writes
// independently. A declared write set does not exclude the other process's
// transaction, two read-modify-write transactions can lose an update, and
// over two replicas two concurrent INSERTs can apply in opposite orders.
// TestWriteOrderSharedAcrossClients is the one-registry control.
func TestWriteOrderDoesNotSpanRegistries(t *testing.T) {
	t.Run("lock not shared", func(t *testing.T) {
		reps := startReplicas(t, 2)
		c1 := newTestClient(t, reps, Config{})
		same := newTestClient(t, reps, Config{})
		other := otherProcessClient(t, Config{DSN: dsnOf(reps), PoolSize: 4})

		s, err := c1.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Begin("audit"); err != nil {
			t.Fatal(err)
		}
		insert := func(c *Client) <-chan error {
			done := make(chan error, 1)
			go func() {
				_, err := c.Exec("INSERT INTO audit (item, delta) VALUES (1, 1)")
				done <- err
			}()
			return done
		}
		select {
		case err := <-insert(other):
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("another registry's INSERT waited for audit's write-order lock")
		}
		sameDone := insert(same)
		select {
		case <-sameDone:
			t.Fatal("the same registry's INSERT ran while audit's write-order lock was held")
		case <-time.After(50 * time.Millisecond):
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		c1.Put(s, false)
		if err := <-sameDone; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("update lost", func(t *testing.T) {
		// Engine reads take no lock, and the engine locks a table only at
		// a transaction's first write, so without a shared registry two
		// read-modify-write transactions both read before either writes,
		// even over one replica.
		reps := startReplicas(t, 1)
		c1 := newTestClient(t, reps, Config{})
		c2 := otherProcessClient(t, Config{DSN: dsnOf(reps), PoolSize: 4})
		var sessions [2]*Session
		var read [2]int64
		for i, c := range []*Client{c1, c2} {
			s, err := c.Get()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Put(s, false)
			if err := s.Begin("items"); err != nil {
				t.Fatal(err)
			}
			read[i] = queryQty(t, s, 2)
			sessions[i] = s
		}
		for i, s := range sessions {
			mustExec(t, s, "UPDATE items SET qty = ? WHERE id = 2", sqldb.Int(read[i]+1))
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if got := queryReplica(t, reps[0], "SELECT qty FROM items WHERE id = 2").Rows[0][0].AsInt(); got != 101 {
			t.Fatalf("qty = %d after two increments from 100, want 101: one update lost", got)
		}
	})

	t.Run("replicas diverge", func(t *testing.T) {
		reps := startReplicas(t, 2)
		slow := chaos.Fault{Kind: chaos.Latency, Delay: 100 * time.Millisecond}
		px1, err := chaos.Listen(reps[1].addr)
		if err != nil {
			t.Fatal(err)
		}
		defer px1.Close()
		px0, err := chaos.Listen(reps[0].addr)
		if err != nil {
			t.Fatal(err)
		}
		defer px0.Close()
		px1.Set(slow)
		px0.Set(slow)
		c1 := NewWithConfig(Config{DSN: reps[0].addr + "," + px1.Addr(), PoolSize: 2})
		defer c1.Close()
		c2 := otherProcessClient(t, Config{DSN: px0.Addr() + "," + reps[1].addr, PoolSize: 2})

		start := make(chan struct{})
		var wg sync.WaitGroup
		for item, c := range []*Client{c1, c2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := c.Exec("INSERT INTO audit (item, delta) VALUES (?, 0)", sqldb.Int(int64(item+1))); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if c1.Healthy() != 2 || c2.Healthy() != 2 {
			t.Fatalf("healthy %d/%d, want 2/2: the divergence raises no ejection", c1.Healthy(), c2.Healthy())
		}
		// Replica 0 took client 1's INSERT first, replica 1 client 2's.
		for i, want := range []string{"[[1 1] [2 2]]", "[[1 2] [2 1]]"} {
			if got := fmt.Sprint(queryReplica(t, reps[i], "SELECT id, item FROM audit ORDER BY id").Rows); got != want {
				t.Errorf("replica %d (id, item) = %s, want %s", i, got, want)
			}
		}
	})
}

// TestLockRegistryRefcounts: closing every client over a DSN must free its
// registry slot; an open one must keep it.
func TestLockRegistryRefcounts(t *testing.T) {
	addrs := []string{"127.0.0.1:65001", "127.0.0.1:65002"}
	key := registryKey(addrs)
	a := NewWithConfig(Config{DSN: strings.Join(addrs, ",")})
	b := NewWithConfig(Config{DSN: addrs[1] + "," + addrs[0]}) // order-insensitive
	if flat(a).locks != flat(b).locks {
		t.Fatal("clients over the same replica set got distinct write-order locks")
	}
	a.Close()
	a.Close() // double Close must not double-release
	lockRegistry.mu.Lock()
	refs := lockRegistry.m[key].refs
	lockRegistry.mu.Unlock()
	if refs != 1 {
		t.Fatalf("refs = %d after one of two clients closed, want 1", refs)
	}
	b.Close()
	lockRegistry.mu.Lock()
	_, live := lockRegistry.m[key]
	lockRegistry.mu.Unlock()
	if live {
		t.Fatal("registry entry leaked after the last client closed")
	}
}

// TestCatchAllTxnExcludesNamedWriters: an undeclared transaction must
// conflict with declared-table writers, or replicas could apply the two
// write streams in different orders.
func TestCatchAllTxnExcludesNamedWriters(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{PoolSize: 8})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var tables []string
				if w%2 == 0 {
					tables = []string{"audit"} // declared
				} // odd workers: undeclared -> catch-all
				err := c.WithTx(tables, func(tx *Session) error {
					_, err := tx.Exec("INSERT INTO audit (item, delta) VALUES (?, ?)",
						sqldb.Int(int64(w)), sqldb.Int(int64(i)))
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	a := queryReplica(t, reps[0], "SELECT id, item, delta FROM audit ORDER BY id")
	b := queryReplica(t, reps[1], "SELECT id, item, delta FROM audit ORDER BY id")
	if len(a.Rows) != 40 || fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Fatalf("replicas diverged or lost rows (%d vs %d):\n%v\nvs\n%v",
			len(a.Rows), len(b.Rows), a.Rows, b.Rows)
	}
}

// TestTxnAbortErrorPoisonsSession: a lock-wait-timeout abort rolls the
// whole transaction back on the reporting replica; the session must refuse
// further statements (and discard its connections at end) instead of
// letting the caller keep executing half in and half out of a transaction.
func TestTxnAbortErrorPoisonsSession(t *testing.T) {
	eachReplicaCount(t, txnAbortErrorPoisonsSession)
}

func txnAbortErrorPoisonsSession(t *testing.T, reps []*testReplica) {
	reps[0].db.SetLockWaitTimeout(30 * time.Millisecond)
	c := newTestClient(t, reps, Config{})

	// A direct engine transaction holds audit's write lock.
	blocker := reps[0].db.NewSession()
	defer blocker.Close()
	if _, err := blocker.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := blocker.Exec("UPDATE audit SET delta = 0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Put(s, false)
	if err := s.Begin("items", "audit"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE items SET qty = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// A read of the held table waits for nothing and sees committed state.
	if _, err := s.Exec("SELECT delta FROM audit WHERE id = 1"); err != nil {
		t.Fatalf("read of a write-held table: %v", err)
	}
	// The write against it times out: the server aborts the WHOLE
	// transaction.
	if _, err := s.Exec("UPDATE audit SET delta = 1 WHERE id = 1"); err == nil {
		t.Fatal("write against a write-held table must time out")
	}
	// The session is poisoned: further statements must be refused, so the
	// caller cannot commit a half-aborted transaction.
	if _, err := s.Exec("UPDATE items SET qty = 2 WHERE id = 1"); err == nil {
		t.Fatal("session must refuse statements after a transaction abort")
	}
	if _, err := blocker.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	// Nothing from the aborted transaction survived — nor is visible on a
	// replica that did not abort, whose side dies with the session.
	for i, r := range reps {
		res := queryReplica(t, r, "SELECT qty FROM items WHERE id = 1")
		if got := res.Rows[0][0].AsInt(); got != 100 {
			t.Fatalf("replica %d qty %d, want 100 (aborted transaction leaked a write)", i, got)
		}
	}
}

// TestSessionBetweenTransactionsHoldsNoConnection: a session's connections
// go back to the pools when its transaction ends. With no transaction open
// its statements take the client's auto-commit path, which borrows per
// statement — over a one-connection pool it could not if the session still
// sat on that connection.
func TestSessionBetweenTransactionsHoldsNoConnection(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{PoolSize: 1, Timeouts: pool.Timeouts{Wait: 200 * time.Millisecond}})
		s, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Put(s, false)
		if err := s.Begin("items"); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "UPDATE items SET qty = 1 WHERE id = 1")
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := queryQty(t, s, 1); got != 1 {
			t.Fatalf("qty read on the session after its commit = %d, want 1", got)
		}
		mustExec(t, s, "UPDATE items SET qty = 2 WHERE id = 1")
		for _, r := range flat(c).replicas {
			if n := r.pool.InUse(); n != 0 {
				t.Errorf("replica %d: %d connections borrowed with no transaction open", r.id, n)
			}
		}
	})
}

// TestTxnBeginSkipsEjectedPinnedReplica: a session whose read replica was
// ejected before its transaction began reads inside the transaction from a
// replica that is in it, not over a fresh connection — outside the
// transaction — to the ejected one.
func TestTxnBeginSkipsEjectedPinnedReplica(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{})
	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Put(s, false)
	pinned := s.txn.(*replicaTxn).pinned.id
	reps[pinned].srv.Close()
	mustExec(t, c, "UPDATE items SET qty = 1 WHERE id = 1") // the broadcast finds it dead
	if c.Healthy() != 1 {
		t.Fatalf("healthy = %d, want the dead replica ejected", c.Healthy())
	}
	if err := s.Begin("items"); err != nil {
		t.Fatal(err)
	}
	if got := queryQty(t, s, 1); got != 1 {
		t.Fatalf("first read of the transaction = %d, want 1 from the survivor", got)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}
