package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// startEmptyReplicas boots n backends with no schema: shard tests create
// tables through the sharded client so the automatic AUTO_INCREMENT
// striding applies.
func startEmptyReplicas(t testing.TB, n int) []*testReplica {
	t.Helper()
	reps := make([]*testReplica, n)
	for i := range reps {
		db := sqldb.New()
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

// startShards boots nShards groups of nReplicas backends each.
func startShards(t testing.TB, nShards, nReplicas int) [][]*testReplica {
	t.Helper()
	groups := make([][]*testReplica, nShards)
	for i := range groups {
		groups[i] = startEmptyReplicas(t, nReplicas)
	}
	return groups
}

func shardDSN(groups [][]*testReplica) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = dsnOf(g)
	}
	return strings.Join(parts, ";")
}

// newShardClient builds a sharded client over the groups with the orders
// table partitioned by customer_id and creates the test schema through it.
func newShardClient(t *testing.T, groups [][]*testReplica, cfg Config) *Client {
	t.Helper()
	cfg.DSN = shardDSN(groups)
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 4
	}
	if cfg.ShardBy == nil {
		cfg.ShardBy = map[string]string{"orders": "customer_id"}
	}
	c := NewWithConfig(cfg)
	t.Cleanup(c.Close)
	mustExec(t, c, `CREATE TABLE orders (id INT PRIMARY KEY AUTO_INCREMENT, customer_id INT, total INT)`)
	mustExec(t, c, `CREATE TABLE customers (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32))`)
	return c
}

func TestParseShardDSN(t *testing.T) {
	groups := ParseShardDSN("a:1,a:2; b:1 ,b:2;")
	if len(groups) != 2 || len(groups[0]) != 2 || groups[1][1] != "b:2" {
		t.Fatalf("groups %+v", groups)
	}
	if g := ParseShardDSN("a:1,a:2"); len(g) != 1 {
		t.Fatalf("unsharded DSN parsed as %d groups", len(g))
	}
}

// TestShardPinnedRouting: a statement whose predicate pins the shard key
// must run on the owning shard alone, and the rows must physically live
// only there.
func TestShardPinnedRouting(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	if st := c.ClientStats(); st.Shards != 2 || c.Replicas() != 2 {
		t.Fatalf("topology: %d shards / %d replicas", st.Shards, c.Replicas())
	}
	for cust := 1; cust <= 8; cust++ {
		mustExec(t, c, "INSERT INTO orders (customer_id, total) VALUES (?, ?)",
			sqldb.Int(int64(cust)), sqldb.Int(int64(10*cust)))
	}
	// customer_id c hashes to shard (c-1) mod 2: odd customers on shard 0.
	for si, g := range groups {
		res := queryReplica(t, g[0], "SELECT customer_id FROM orders")
		if len(res.Rows) != 4 {
			t.Fatalf("shard %d holds %d rows, want 4", si, len(res.Rows))
		}
		for _, row := range res.Rows {
			if got := int(row[0].AsInt()-1) % 2; got != si {
				t.Errorf("customer %d on shard %d, want shard %d", row[0].AsInt(), si, got)
			}
		}
	}
	// A pinned SELECT must not touch the other shard.
	before := groups[1][0].srv.Telemetry().Queries
	res, err := c.Exec("SELECT total FROM orders WHERE customer_id = ?", sqldb.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("pinned read: %+v", res.Rows)
	}
	if groups[1][0].srv.Telemetry().Queries != before {
		t.Error("pinned read reached the non-owning shard")
	}
	if st := c.ClientStats(); st.ShardSingle == 0 || st.Shards != 2 {
		t.Errorf("shard counters not recorded: %+v", st)
	}
}

// TestShardStridedIDs: CREATE TABLE through the sharded client strides each
// shard's AUTO_INCREMENT, so generated ids hash back to the shard that
// assigned them — the property single-shard routing of "WHERE id = ?"
// lookups on colocated child tables depends on.
func TestShardStridedIDs(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	seen := map[int]bool{}
	for cust := 1; cust <= 6; cust++ {
		res, err := c.Exec("INSERT INTO orders (customer_id, total) VALUES (?, ?)",
			sqldb.Int(int64(cust)), sqldb.Int(1))
		if err != nil {
			t.Fatal(err)
		}
		id := res.LastInsertID
		wantShard := (cust - 1) % 2
		if gotShard := int((id-1)%2+2) % 2; gotShard != wantShard {
			t.Errorf("customer %d: id %d lands in shard %d's congruence class, want %d",
				cust, id, gotShard, wantShard)
		}
		if seen[int(id)] {
			t.Errorf("id %d assigned twice across shards", id)
		}
		seen[int(id)] = true
	}
}

// TestShardScatterMerge: unpinned SELECTs fan out and merge — global
// ORDER BY / LIMIT re-applied client-side, COUNT(*) summed.
func TestShardScatterMerge(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	totals := []int64{10, 60, 20, 50, 30, 40}
	for i, total := range totals {
		mustExec(t, c, "INSERT INTO orders (customer_id, total) VALUES (?, ?)",
			sqldb.Int(int64(i+1)), sqldb.Int(total))
	}
	res, err := c.Exec("SELECT customer_id, total FROM orders ORDER BY total DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("merged rows: %+v", res.Rows)
	}
	for i, want := range []int64{60, 50, 40} {
		if got := res.Rows[i][1].AsInt(); got != want {
			t.Errorf("merged order row %d: total %d, want %d", i, got, want)
		}
	}
	res, err = c.Exec("SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Columns, res.Rows); got != "[count] [[6]]" {
		t.Fatalf("count merge: %s", got)
	}
	res, err = c.Exec("SELECT COUNT(*) FROM orders WHERE total = ?", sqldb.Int(50))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 1 {
		t.Fatalf("count merge under WHERE: %d, want 1", got)
	}
	// Unpinned lookup by a non-key column scatters and still finds the row.
	res, err = c.Exec("SELECT customer_id FROM orders WHERE total = ?", sqldb.Int(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 4 {
		t.Fatalf("scatter point lookup: %+v", res.Rows)
	}
	// The per-shard rewrite splices at a byte offset of the statement text:
	// non-ASCII text ahead of the spliced clause (ı upper-cases to a shorter
	// I) must not shift the appended ORDER BY key.
	res, err = c.Exec("SELECT customer_id -- ıı\nFROM orders ORDER BY total LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != `[[1] [3]]` || len(res.Columns) != 1 {
		t.Fatalf("unselected ORDER BY key behind non-ASCII text: %v %s", res.Columns, got)
	}
	// An unselected key named like a selected column of another table
	// sorts by its own column, the one scatterSQL appended.
	mustExec(t, c, "CREATE TABLE cust (id INT PRIMARY KEY, cid INT)")
	for cid := 1; cid <= 6; cid++ {
		mustExec(t, c, "INSERT INTO cust (id, cid) VALUES (?, ?)", sqldb.Int(int64(10-cid)), sqldb.Int(int64(cid)))
	}
	res, err = c.Exec("SELECT o.id, o.customer_id FROM orders o JOIN cust c ON c.cid = o.customer_id ORDER BY c.id DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	var custs []int64
	for _, r := range res.Rows {
		custs = append(custs, r[1].AsInt())
	}
	if fmt.Sprint(custs) != "[1 2 3]" || len(res.Columns) != 2 {
		t.Fatalf("ORDER BY c.id beside a selected o.id: customers %v, columns %v; want [1 2 3]", custs, res.Columns)
	}
	if st := c.ClientStats(); st.ShardScatter == 0 {
		t.Errorf("scatter counter not recorded: %+v", st)
	}
}

// TestShardParsesOncePerClient: a sharded client plans a distinct text
// once — the router, every shard's replica set and every session read the
// same memoized plan, for a pinned statement and for a scatter alike.
func TestShardParsesOncePerClient(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	mustExec(t, c, "INSERT INTO orders (customer_id, total) VALUES (?, ?)", sqldb.Int(1), sqldb.Int(10))
	pinned := "SELECT total FROM orders WHERE customer_id = ?"
	scatter := "SELECT customer_id FROM orders WHERE total = ?"
	for _, q := range []string{pinned, scatter} {
		if _, err := c.Exec(q, sqldb.Int(10)); err != nil {
			t.Fatal(err)
		}
	}
	sh := c.shardSet
	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Put(s, false)
	for _, q := range []string{pinned, scatter} {
		v, ok := sh.routes.m.Load(q)
		if !ok {
			t.Fatalf("%q ran without a memoized plan", q)
		}
		p := v.(*route)
		if !p.sharded || s.sh.routes.of(q) != p {
			t.Errorf("%q: the session reads a plan apart from the router's", q)
		}
		for i, rs := range sh.shards {
			if rs.routes.of(q) != p {
				t.Errorf("shard %d planned %q apart from the router", i, q)
			}
		}
	}
}

// TestShardGlobalTableBroadcast: writes to a table outside ShardBy must
// apply on every shard, so any shard can answer reads for it.
func TestShardGlobalTableBroadcast(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	mustExec(t, c, "INSERT INTO customers (name) VALUES (?)", sqldb.String("ada"))
	for si, g := range groups {
		res := queryReplica(t, g[0], "SELECT name FROM customers WHERE id = 1")
		if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "ada" {
			t.Errorf("shard %d missing global-table row: %+v", si, res.Rows)
		}
	}
	res, err := c.Exec("SELECT name FROM customers WHERE id = ?", sqldb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("global read: %+v", res.Rows)
	}
	if st := c.ClientStats(); st.ShardBroadcast == 0 {
		t.Errorf("broadcast counter not recorded: %+v", st)
	}
}

// TestShardContentEpochIsSum: a sharded client's content epoch is the sum of
// its shards' epochs, so it advances with a write to any one shard — a max
// would stand still while a lagging shard caught up — and a broadcast to
// every shard advances it once per shard.
func TestShardContentEpochIsSum(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	e0 := c.ContentEpoch()
	mustExec(t, c, "INSERT INTO orders (customer_id, total) VALUES (?, ?)", sqldb.Int(1), sqldb.Int(5))
	if got := c.ContentEpoch(); got != e0+1 {
		t.Fatalf("epoch %d after a pinned write at %d, want one more", got, e0)
	}
	mustExec(t, c, "INSERT INTO customers (name) VALUES (?)", sqldb.String("ada"))
	if got := c.ContentEpoch(); got != e0+3 {
		t.Fatalf("epoch %d after a broadcast to 2 shards at %d, want two more", got, e0+1)
	}
}

// TestShardTxnSingleShard: a transaction that only ever pins one shard must
// stay on it — no BEGIN on the other shard, no two-phase commit.
func TestShardTxnSingleShard(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	before := groups[1][0].srv.Telemetry().Queries
	err := c.WithTx([]string{"orders"}, func(tx *Session) error {
		if _, err := tx.Exec("INSERT INTO orders (customer_id, total) VALUES (?, ?)",
			sqldb.Int(1), sqldb.Int(5)); err != nil {
			return err
		}
		res, err := tx.Exec("SELECT total FROM orders WHERE customer_id = ?", sqldb.Int(1))
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 5 {
			return fmt.Errorf("read-your-writes inside shard txn: %+v", res.Rows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := groups[1][0].srv.Telemetry().Queries; got != before {
		t.Errorf("single-shard transaction reached shard 1 (%d statements)", got-before)
	}
	if st := c.ClientStats(); st.Shard2PCTxns != 0 {
		t.Errorf("single-shard commit ran 2PC: %+v", st)
	}
}

// TestShard2PCCommit: a transaction spanning shards commits atomically via
// PREPARE TRANSACTION on every shard followed by COMMIT everywhere.
func TestShard2PCCommit(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	err := c.WithTx([]string{"orders", "customers"}, func(tx *Session) error {
		// customers is global, so the transaction opens every shard and the
		// two pinned INSERTs land on different shards.
		for cust := 1; cust <= 2; cust++ {
			if _, err := tx.Exec("INSERT INTO orders (customer_id, total) VALUES (?, ?)",
				sqldb.Int(int64(cust)), sqldb.Int(int64(100*cust))); err != nil {
				return err
			}
		}
		_, err := tx.Exec("INSERT INTO customers (name) VALUES (?)", sqldb.String("bob"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for si, g := range groups {
		res := queryReplica(t, g[0], "SELECT total FROM orders")
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != int64(100*(si+1)) {
			t.Errorf("shard %d after 2PC commit: %+v", si, res.Rows)
		}
		res = queryReplica(t, g[0], "SELECT name FROM customers")
		if len(res.Rows) != 1 {
			t.Errorf("shard %d missing global write from txn: %+v", si, res.Rows)
		}
	}
	if st := c.ClientStats(); st.Shard2PCTxns != 1 {
		t.Errorf("Shard2PCTxns %d, want 1", st.Shard2PCTxns)
	}
}

// TestShard2PCPrepareFailureAborts: when one shard cannot prepare, no
// shard may commit — the coordinator aborts everywhere.
func TestShard2PCPrepareFailureAborts(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	err := c.WithTx(nil, func(tx *Session) error {
		for cust := 1; cust <= 2; cust++ {
			if _, err := tx.Exec("INSERT INTO orders (customer_id, total) VALUES (?, ?)",
				sqldb.Int(int64(cust)), sqldb.Int(7)); err != nil {
				return err
			}
		}
		groups[1][0].srv.Close() // shard 1 dies before the commit point
		return nil
	})
	if err == nil {
		t.Fatal("commit succeeded with a shard unable to prepare")
	}
	res := queryReplica(t, groups[0][0], "SELECT COUNT(*) FROM orders")
	if got := res.Rows[0][0].AsInt(); got != 0 {
		t.Fatalf("shard 0 kept %d rows of an aborted cross-shard transaction", got)
	}
}

// TestShardTxnAscendingOrder: a lazy write transaction touching shards out
// of ascending order fails deterministically (the deadlock discipline)
// rather than acquiring shard locks in conflicting orders.
func TestShardTxnAscendingOrder(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	err := c.WithTx([]string{"orders"}, func(tx *Session) error {
		if _, err := tx.Exec("INSERT INTO orders (customer_id, total) VALUES (?, ?)",
			sqldb.Int(2), sqldb.Int(1)); err != nil { // shard 1 first
			return err
		}
		_, err := tx.Exec("INSERT INTO orders (customer_id, total) VALUES (?, ?)",
			sqldb.Int(1), sqldb.Int(1)) // then shard 0: descending
		return err
	})
	if err == nil {
		t.Fatal("descending shard acquisition was allowed")
	}
	if !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestShardReadOnlyTxnScatter: read-only work on a sharded session runs
// with no transaction open — no sub-session is opened — and a scatter read
// still merges every shard's answer.
func TestShardReadOnlyTxnScatter(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	for cust := 1; cust <= 4; cust++ {
		mustExec(t, c, "INSERT INTO orders (customer_id, total) VALUES (?, ?)",
			sqldb.Int(int64(cust)), sqldb.Int(int64(cust)))
	}
	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Put(s, false)
	before := c.ClientStats().ShardScatter
	res, err := s.Exec("SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 4 {
		t.Fatalf("scatter COUNT(*) on the session: %d, want 4", got)
	}
	if got := c.ClientStats().ShardScatter - before; got != 1 {
		t.Fatalf("scatter reads rose by %d, want 1", got)
	}
	for i, sub := range s.subs {
		if sub.open() {
			t.Fatalf("shard %d's sub-session opened by a read outside a transaction", i)
		}
	}
}

// shardTotals lists each shard's orders totals in id order (replica 0).
func shardTotals(t *testing.T, groups [][]*testReplica) [][]int64 {
	t.Helper()
	out := make([][]int64, len(groups))
	for si, g := range groups {
		out[si] = []int64{}
		for _, row := range queryReplica(t, g[0], "SELECT total FROM orders ORDER BY id").Rows {
			out[si] = append(out[si], row[0].AsInt())
		}
	}
	return out
}

// TestShardedColumnlessInsertRefused: an INSERT that does not name its
// columns hides its shard key from the router, which would send the row to
// any shard and leave it where a pinned read never looks. It is not in the
// dialect: each one is the database's parse error, refused before a
// connection is borrowed, and no shard holds a row.
func TestShardedColumnlessInsertRefused(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	const q = "INSERT INTO orders VALUES (?, ?, 5)"
	gets := c.Stats().Gets
	misses := 0
	for cust := int64(1); cust <= 20; cust++ {
		_, err := c.Exec(q, sqldb.Int(100+cust), sqldb.Int(cust))
		if err == nil {
			res, err := c.Exec("SELECT total FROM orders WHERE customer_id = ?", sqldb.Int(cust))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				misses++
			}
			continue
		}
		if !wire.IsServerError(err) || !strings.Contains(err.Error(), "INSERT without a column list is not in the dialect") {
			t.Fatalf("Exec(%q) = %v, want the parse error", q, err)
		}
	}
	if misses > 0 {
		t.Errorf("%d of 20 pinned reads missed the row a column-less INSERT wrote", misses)
	}
	if got := c.Stats().Gets - gets; got != 0 {
		t.Errorf("column-less INSERTs borrowed %d connections", got)
	}
	for si, g := range groups {
		if n := queryReplica(t, g[0], "SELECT COUNT(*) FROM orders").Rows[0][0].AsInt(); n != 0 {
			t.Errorf("shard %d holds %d rows", si, n)
		}
	}
}

// TestShardedMultiRowInsert: a multi-row INSERT whose rows belong to
// different shards is split by owner — each shard gets its rows in
// statement order — and runs as one unit: all-or-nothing in auto-commit,
// a rolled-back transaction with ErrSplitInsertAborted inside one.
func TestShardedMultiRowInsert(t *testing.T) {
	// Customers 1, 3 live on shard 0; 2, 4 on shard 1.
	const spread = "INSERT INTO orders (customer_id, total) VALUES (1, 10), (2, 20), (3, 30), (1, 40), (4, 50)"
	want := fmt.Sprint([][]int64{{10, 30, 40}, {20, 50}})

	t.Run("autocommit", func(t *testing.T) {
		groups := startShards(t, 2, 1)
		c := newShardClient(t, groups, Config{})
		res, err := c.Exec(spread)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(shardTotals(t, groups)); got != want {
			t.Fatalf("per-shard rows %s, want %s", got, want)
		}
		// The last row (customer 4) is shard 1's: its generated id is the
		// statement's LastInsertID.
		last := queryReplica(t, groups[1][0], "SELECT id FROM orders WHERE customer_id = 4").Rows[0][0].AsInt()
		if res.RowsAffected != 5 || res.LastInsertID != last {
			t.Fatalf("RowsAffected %d LastInsertID %d, want 5 and %d", res.RowsAffected, res.LastInsertID, last)
		}
		if st := c.ClientStats(); st.Shard2PCTxns != 1 {
			t.Errorf("split INSERT ran %d two-phase commits, want 1", st.Shard2PCTxns)
		}
		// Explicit ids: LastInsertID is the last row's, on shard 0 this time.
		res, err = c.Exec("INSERT INTO orders (id, customer_id, total) VALUES (?, ?, ?), (?, ?, ?), (?, ?, ?)",
			sqldb.Int(101), sqldb.Int(2), sqldb.Int(60), sqldb.Int(103), sqldb.Int(4), sqldb.Int(70),
			sqldb.Int(105), sqldb.Int(3), sqldb.Int(80))
		if err != nil || res.RowsAffected != 3 || res.LastInsertID != 105 {
			t.Fatalf("explicit ids: %+v, %v; want 3 rows, LastInsertID 105", res, err)
		}

		// A UNIQUE violation on shard 1 leaves no row on either shard.
		before := fmt.Sprint(shardTotals(t, groups))
		_, err = c.Exec("INSERT INTO orders (id, customer_id, total) VALUES (201, 1, 1), (202, 2, 2), (101, 4, 3)")
		if err == nil {
			t.Fatal("duplicate primary key accepted")
		}
		if got := fmt.Sprint(shardTotals(t, groups)); got != before {
			t.Fatalf("failed split INSERT left rows behind: %s, was %s", got, before)
		}
	})

	t.Run("transaction", func(t *testing.T) {
		groups := startShards(t, 2, 1)
		c := newShardClient(t, groups, Config{})
		err := c.WithTx([]string{"orders"}, func(tx *Session) error {
			res, err := tx.Exec(spread)
			if err == nil && res.RowsAffected != 5 {
				err = fmt.Errorf("RowsAffected %d, want 5", res.RowsAffected)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(shardTotals(t, groups)); got != want {
			t.Fatalf("per-shard rows %s, want %s", got, want)
		}

		// A failing part rolls back the whole transaction, statements
		// before the INSERT included, and fails the session.
		before := fmt.Sprint(shardTotals(t, groups))
		var insertErr, nextErr error
		err = c.WithTx([]string{"orders"}, func(tx *Session) error {
			if _, err := tx.Exec("UPDATE orders SET total = 0 WHERE customer_id = ?", sqldb.Int(1)); err != nil {
				return err
			}
			// Shard 1 already holds id 2 (customer 2's order).
			_, insertErr = tx.Exec("INSERT INTO orders (id, customer_id, total) VALUES (301, 3, 1), (2, 4, 2)")
			_, nextErr = tx.Exec("SELECT total FROM orders WHERE customer_id = ?", sqldb.Int(1))
			return insertErr
		})
		if !errors.Is(insertErr, ErrSplitInsertAborted) || !errors.Is(err, ErrSplitInsertAborted) {
			t.Fatalf("failed split in a transaction: %v (WithTx %v), want ErrSplitInsertAborted", insertErr, err)
		}
		if !errors.Is(nextErr, errSessionFailed) {
			t.Fatalf("statement after the aborted split: %v, want errSessionFailed", nextErr)
		}
		if got := fmt.Sprint(shardTotals(t, groups)); got != before {
			t.Fatalf("aborted transaction left changes: %s, was %s", got, before)
		}
	})

	t.Run("routing", func(t *testing.T) {
		groups := startShards(t, 2, 1)
		c := newShardClient(t, groups, Config{})
		// Keyless rows all go to one shard, as one statement.
		mustExec(t, c, "INSERT INTO orders (total) VALUES (1), (2), (3)")
		counts := shardTotals(t, groups)
		if len(counts[0])+len(counts[1]) != 3 || (len(counts[0]) != 0 && len(counts[1]) != 0) {
			t.Fatalf("keyless rows spread over shards: %v", counts)
		}
		// A key the router cannot resolve is refused, never guessed.
		for _, q := range []string{
			"INSERT INTO orders (customer_id, total) VALUES (1, 1), (customer_id + 1, 2)",
			"INSERT INTO orders (customer_id, total) VALUES (1 + 1, 2)",
			"INSERT INTO orders (customer_id, total) VALUES (?, 1), (?, 2)",
		} {
			if _, err := c.Exec(q, sqldb.Int(1)); !errors.Is(err, errInsertSpansShards) {
				t.Errorf("%s: %v, want errInsertSpansShards", q, err)
			}
		}
		// A non-constant value outside the key cannot be re-sent as an argument.
		if _, err := c.Exec("INSERT INTO orders (customer_id, total) VALUES (1, 1), (2, 1 + 1)"); !errors.Is(err, errInsertSpansShards) {
			t.Errorf("non-constant value in a split: %v, want errInsertSpansShards", err)
		}
		// Every part goes out in power-of-two chunks: splits of 2…37 rows
		// over two shards (parts of at most 19 rows) prepare at most the
		// chunk sizes 1…16 on each shard, not one text per part size. A
		// text new to the plan cache is one miss there.
		plans := func(si int) int64 { return groups[si][0].db.Telemetry().PlanMisses }
		base := []int64{plans(0), plans(1)}
		for n := 2; n <= 37; n++ {
			var args []sqldb.Value
			for i := 0; i < n; i++ {
				args = append(args, sqldb.Int(int64(i+1)), sqldb.Int(int64(1000*n+i)))
			}
			q := "INSERT INTO orders (customer_id, total) VALUES (?, ?)" + strings.Repeat(", (?, ?)", n-1)
			if res, err := c.Exec(q, args...); err != nil || res.RowsAffected != int64(n) {
				t.Fatalf("%d-row split: %+v, %v", n, res, err)
			}
		}
		for si := range groups {
			if grew := plans(si) - base[si]; grew > 5 {
				t.Errorf("shard %d prepared %d new texts for its parts, want at most 5", si, grew)
			}
			// The 37-row statement's rows, in statement order.
			var got, want []int64
			for _, row := range queryReplica(t, groups[si][0], "SELECT total FROM orders WHERE total LIKE '37___' ORDER BY id").Rows {
				got = append(got, row[0].AsInt())
			}
			for i := si; i < 37; i += 2 {
				want = append(want, int64(37000+i))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("shard %d rows %v, want %v", si, got, want)
			}
		}
	})
}

// TestShardMid2PCReplicaKillRejoin is the sharded chaos case the PR's
// acceptance names: a replica dies inside the 2PC in-doubt window (between
// PREPARE and COMMIT), the transaction still commits on the surviving
// replicas, and after heal + rejoin every shard's replicas hold identical
// rows AND identical AUTO_INCREMENT counters (offset/stride included), so
// post-recovery id assignment cannot diverge.
func TestShardMid2PCReplicaKillRejoin(t *testing.T) {
	groups := startShards(t, 2, 2)
	c := newShardClient(t, groups, Config{})
	victim := groups[0][1] // shard 0, replica 1 -> global replica id 1
	sh := c.shardSet
	sh.betweenPhases = func() { victim.srv.Close() }
	err := c.WithTx([]string{"orders", "customers"}, func(tx *Session) error {
		for cust := 1; cust <= 2; cust++ {
			if _, err := tx.Exec("INSERT INTO orders (customer_id, total) VALUES (?, ?)",
				sqldb.Int(int64(cust)), sqldb.Int(int64(cust))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("2PC commit with mid-window replica death: %v", err)
	}
	sh.betweenPhases = nil
	if h := c.Healthy(); h != 3 {
		t.Fatalf("healthy %d after kill, want 3", h)
	}
	// Heal: rebind the victim on its old address and rejoin with sync.
	srv2 := wire.NewServer(victim.db, nil)
	if _, err := srv2.Listen(victim.addr); err != nil {
		t.Skipf("cannot rebind %s: %v", victim.addr, err)
	}
	t.Cleanup(func() { srv2.Close() })
	victim.srv = srv2
	if err := c.Rejoin(1, true); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if h := c.Healthy(); h != 4 {
		t.Fatalf("healthy %d after rejoin, want 4", h)
	}
	for si, g := range groups {
		want := dumpReplica(t, g[0])
		for ri := 1; ri < len(g); ri++ {
			if got := dumpReplica(t, g[ri]); got != want {
				t.Errorf("shard %d replica %d diverged after rejoin:\n%s\nwant:\n%s", si, ri, got, want)
			}
		}
	}
	// The strided counters survived the sync: the next write through the
	// cluster assigns the same id on both of shard 0's replicas.
	mustExec(t, c, "INSERT INTO orders (customer_id, total) VALUES (?, ?)", sqldb.Int(1), sqldb.Int(9))
	a := queryReplica(t, groups[0][0], "SELECT id FROM orders ORDER BY id DESC LIMIT 1").Rows[0][0].AsInt()
	b := queryReplica(t, groups[0][1], "SELECT id FROM orders ORDER BY id DESC LIMIT 1").Rows[0][0].AsInt()
	if a != b {
		t.Fatalf("post-rejoin id assignment diverged: %d vs %d", a, b)
	}
}

// TestShardTxnScatterPropagatesPoisoning: a scatter read inside a write
// transaction runs on every shard's sub-session at once, past subExec; when
// one of them fails there the coordinator must be poisoned there and then —
// the next statement is refused client-side instead of running in a
// transaction that is open on one shard and gone on the other. The failure
// is the shard dying under its open sub-session: a read waits for no table
// lock, so the lock-wait abort this test used to provoke can no longer come
// from one (TestTxnAbortErrorPoisonsSession covers the abort, from a write).
func TestShardTxnScatterPropagatesPoisoning(t *testing.T) {
	groups := startShards(t, 2, 1)
	c := newShardClient(t, groups, Config{})
	for cust := 1; cust <= 4; cust++ {
		mustExec(t, c, "INSERT INTO orders (customer_id, total) VALUES (?, ?)",
			sqldb.Int(int64(cust)), sqldb.Int(int64(10*cust)))
	}
	before := []string{dumpReplica(t, groups[0][0]), dumpReplica(t, groups[1][0])}

	var scatterErr, nextErr error
	var served [2]int64
	err := c.WithTx([]string{"orders"}, func(tx *Session) error {
		for cust := 1; cust <= 2; cust++ { // one pinned write per shard, ascending: both subs open
			if _, err := tx.Exec("UPDATE orders SET total = total + 1 WHERE customer_id = ?", sqldb.Int(int64(cust))); err != nil {
				t.Fatalf("pinned write for customer %d: %v", cust, err)
			}
		}
		groups[1][0].srv.Close()
		_, scatterErr = tx.Exec("SELECT total FROM orders ORDER BY total")
		for i, g := range groups {
			served[i] = g[0].srv.Telemetry().Queries
		}
		_, nextErr = tx.Exec("SELECT total FROM orders WHERE customer_id = ?", sqldb.Int(1))
		for i, g := range groups {
			served[i] = g[0].srv.Telemetry().Queries - served[i]
		}
		return scatterErr
	})
	if scatterErr == nil {
		t.Fatal("scatter over a dead shard succeeded")
	}
	if !errors.Is(nextErr, errSessionFailed) {
		t.Fatalf("statement after the failed scatter: %v, want errSessionFailed", nextErr)
	}
	if served != [2]int64{} {
		t.Errorf("the refused statement reached a server (per shard: %v)", served)
	}
	if !errors.Is(err, scatterErr) {
		t.Fatalf("WithTx returned %v, want the scatter's %v", err, scatterErr)
	}
	for i, g := range groups {
		if got := dumpReplica(t, g[0]); got != before[i] {
			t.Errorf("shard %d changed across the failed transaction:\n%s\nwant\n%s", i, got, before[i])
		}
	}
}

// dumpReplica renders a replica's full logical state — rows of every table
// plus the id-assignment counters — for byte-equality comparison.
func dumpReplica(t *testing.T, r *testReplica) string {
	t.Helper()
	var b strings.Builder
	for _, q := range []string{
		"SHOW TABLE STATUS",
		"SELECT * FROM orders ORDER BY id",
		"SELECT * FROM customers ORDER BY id",
	} {
		res := queryReplica(t, r, q)
		for _, row := range res.Rows {
			for _, v := range row {
				b.WriteString(v.AsString())
				b.WriteByte('|')
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestControlTextRejected pins the one multi-statement mode on every
// topology (shards × replicas): LOCK/UNLOCK TABLES, START TRANSACTION and
// the WORK spellings are the database's parse error like any unknown
// statement, and transaction-control text is refused with
// ErrTxnControlText before a connection is borrowed — through the
// pool paths and a session, inside a transaction and out. Nothing is left
// behind on a pooled connection: a following WithTx write to the same table
// commits on every backend. Run under -timeout: a stranded BEGIN or lock
// set hangs that write.
func TestControlTextRejected(t *testing.T) {
	for _, topo := range [][2]int{{1, 1}, {1, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("%dx%d", topo[0], topo[1]), func(t *testing.T) {
			groups := startShards(t, topo[0], topo[1])
			c := newShardClient(t, groups, Config{PoolSize: 1})
			s, err := c.Get()
			if err != nil {
				t.Fatal(err)
			}
			// One connection per backend, so every borrower reuses it — and
			// the session, which keeps what it borrows, goes last.
			type surface struct {
				name string
				run  func(q string) error
			}
			surfaces := []surface{
				{"Client.Exec", func(q string) error { _, err := c.Exec(q); return err }},
				{"Session.Exec", func(q string) error { _, err := s.Exec(q); return err }},
			}
			check := func(when string) {
				t.Helper()
				for _, sf := range surfaces {
					for _, q := range []string{"LOCK TABLES customers WRITE", "UNLOCK TABLES", "START TRANSACTION", "ROLLBACK WORK", " begin work"} {
						_, want := sqldb.New().NewSession().Exec(q)
						if err := sf.run(q); !wire.IsServerError(err) || err.Error() != want.Error() {
							t.Errorf("%s %s(%q) = %v, want the database's parse error %v", when, sf.name, q, err, want)
						}
					}
					for _, q := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
						if err := sf.run(q); !errors.Is(err, ErrTxnControlText) {
							t.Errorf("%s %s(%q) = %v, want ErrTxnControlText", when, sf.name, q, err)
						}
					}
				}
				if c.Healthy() != topo[0]*topo[1] {
					t.Fatalf("%s: %d healthy backends, want %d: a rejected statement ejected one", when, c.Healthy(), topo[0]*topo[1])
				}
			}
			check("outside a transaction:")
			// Inside the session's transaction the rejections neither end
			// it nor poison it. The pool surfaces would queue behind the
			// session's connections here.
			surfaces = surfaces[1:]
			if err := s.Begin("customers"); err != nil {
				t.Fatal(err)
			}
			mustExec(t, s, "INSERT INTO customers (name) VALUES ('in-txn')")
			check("inside a transaction:")
			if err := s.Commit(); err != nil {
				t.Fatalf("commit after rejected statements: %v", err)
			}
			c.Put(s, false)

			err = c.WithTx([]string{"customers"}, func(tx *Session) error {
				_, err := tx.Exec("INSERT INTO customers (name) VALUES ('after')")
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for si, g := range groups {
				for ri, r := range g {
					res := queryReplica(t, r, "SELECT name FROM customers ORDER BY id")
					if got := fmt.Sprint(res.Rows); got != `[["in-txn"] ["after"]]` {
						t.Errorf("shard %d replica %d customers = %s", si, ri, got)
					}
				}
			}
		})
	}
}

// TestUnparsableTextFailsFast: a text outside the dialect is refused
// client-side with the database's own parse error, as a server error, before
// a connection is borrowed or a write-order lock taken. So it neither waits
// behind another client's open write transaction on the DSN nor reaches a
// replica. (Routed as a write on the catch-all key, it used to do both.)
func TestUnparsableTextFailsFast(t *testing.T) {
	for _, topo := range [][2]int{{1, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("%dx%d", topo[0], topo[1]), func(t *testing.T) {
			groups := startShards(t, topo[0], topo[1])
			a := newShardClient(t, groups, Config{})
			b := NewWithConfig(Config{DSN: shardDSN(groups), PoolSize: 4, ShardBy: map[string]string{"orders": "customer_id"}})
			defer b.Close()
			s, err := a.Get()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Begin("customers"); err != nil {
				t.Fatal(err)
			}
			// Deferred, so a failure below still frees b's statements.
			defer func() {
				s.Commit()
				a.Put(s, false)
			}()
			mustExec(t, s, "INSERT INTO customers (name) VALUES ('open')")

			queries := []string{"SELEKT 1", "LOCK TABLES customers WRITE", "START TRANSACTION", "INSERT INTO orders VALUES (?, ?, 5)"}
			errs := make(chan error, len(queries))
			go func() {
				for _, q := range queries {
					_, err := b.Exec(q)
					errs <- err
				}
			}()
			for _, q := range queries {
				_, want := sqldb.New().NewSession().Exec(q)
				select {
				case err := <-errs:
					if !wire.IsServerError(err) || err.Error() != want.Error() {
						t.Errorf("Exec(%q) = %v, want the server's %q", q, err, want)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("Exec(%q) waited behind another client's open write transaction", q)
				}
			}
			if st := b.Stats(); st.Gets != 0 {
				t.Errorf("refused texts borrowed %d connections", st.Gets)
			}
		})
	}
}

// TestClusterExecCachedForwards pins the deprecated ExecCached spellings on
// Client and Session: each is Exec.
func TestClusterExecCachedForwards(t *testing.T) {
	c := newTestClient(t, startReplicas(t, 1), Config{})
	res, err := c.ExecCached("SELECT name FROM items WHERE id = ?", sqldb.Int(2))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "item-2" {
		t.Fatalf("Client.ExecCached: %v %v", err, res)
	}
	err = c.WithTx([]string{"items"}, func(tx *Session) error {
		res, err := tx.ExecCached("UPDATE items SET qty = 7 WHERE id = 2")
		if err == nil && res.RowsAffected != 1 {
			err = fmt.Errorf("%d rows updated", res.RowsAffected)
		}
		return err
	})
	if err != nil {
		t.Fatalf("Session.ExecCached: %v", err)
	}
	if got := queryQty(t, c, 2); got != 7 {
		t.Fatalf("qty = %d, want 7", got)
	}
}
