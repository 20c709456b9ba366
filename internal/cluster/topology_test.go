package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

// TestTopologyInvisible is the differential oracle for DESIGN.md's claim
// that the database tier's topology is invisible to the application: one
// seeded script runs through *Client alone on 1x1, 1x2, 2x1 and 2x2 (shards
// x replicas), each with the query cache off and on, and every statement's
// outcome and the final row set of every table must be identical across the
// eight runs. Keys are explicit — generated ids are strided per shard and
// are the one thing the application is told differs. Multi-row INSERTs
// whose rows span shards run in auto-commit, in a committed transaction and
// in a rolled-back one. On 2x2 the script must scatter reads and broadcast
// writes, or it compares pinned routing alone.
func TestTopologyInvisible(t *testing.T) {
	var want []string
	var wantName string
	for _, topo := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		for _, qc := range []int{0, 64} {
			name := fmt.Sprintf("%dx%d/cache=%d", topo[0], topo[1], qc)
			groups := startShards(t, topo[0], topo[1])
			c := NewWithConfig(Config{
				DSN:        shardDSN(groups),
				PoolSize:   4,
				QueryCache: qc,
				ShardBy:    map[string]string{"items": "id", "bids": "item_id"},
			})
			got := append(topologyScript(c), topologyState(t, groups)...)
			if st := c.ClientStats(); topo == [2]int{2, 2} && (st.ShardScatter == 0 || st.ShardBroadcast == 0) {
				t.Errorf("%s: %d scatters, %d broadcasts, want both > 0", name, st.ShardScatter, st.ShardBroadcast)
			}
			c.Close()
			if want == nil {
				want, wantName = got, name
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s: transcript has %d lines, %s has %d", name, len(got), wantName, len(want))
			}
			diffs := 0
			for i := range got {
				if got[i] == want[i] {
					continue
				}
				if diffs++; diffs <= 5 {
					t.Errorf("%s differs from %s at line %d:\n got %s\nwant %s", name, wantName, i, got[i], want[i])
				}
			}
			if diffs > 5 {
				t.Errorf("%s: %d more differing lines", name, diffs-5)
			}
		}
	}
}

var errScriptRollback = errors.New("script: roll back")

// topologyScript runs the seeded statement script and returns one line per
// statement: its text, arguments and canonical outcome.
func topologyScript(c *Client) []string {
	rng := rand.New(rand.NewSource(17))
	var out []string
	run := func(ex sqldb.Execer, q string, args ...sqldb.Value) {
		res, err := ex.Exec(q, args...)
		out = append(out, fmt.Sprintf("%s %v => %s", q, args, outcome(q, res, err)))
	}
	note := func(what string, err error) { out = append(out, fmt.Sprintf("%s => %s", what, outcome("", nil, err))) }
	i64 := func(v int) sqldb.Value { return sqldb.Int(int64(v)) }

	for _, q := range []string{
		`CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32), category INT, qty INT, end_date INT)`,
		`CREATE TABLE bids (id INT PRIMARY KEY AUTO_INCREMENT, item_id INT, amount INT)`,
		`CREATE TABLE categories (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32))`,
		`CREATE INDEX items_end ON items (end_date)`,
	} {
		run(c, q)
	}
	const nItems, nBids, nCats = 24, 40, 4
	for id := 1; id <= nCats; id++ {
		run(c, "INSERT INTO categories (id, name) VALUES (?, ?)", i64(id), sqldb.String(fmt.Sprintf("cat-%d", id)))
	}
	names := []string{"lamp", "ıı", "chair", "İstanbul"}
	dates := rng.Perm(nItems) // distinct, so ORDER BY end_date is a total order
	for id := 1; id <= nItems; id++ {
		run(c, "INSERT INTO items (id, name, category, qty, end_date) VALUES (?, ?, ?, ?, ?)",
			i64(id), sqldb.String(names[rng.Intn(len(names))]), i64(1+rng.Intn(nCats)), i64(rng.Intn(10)), i64(1000+7*dates[id-1]))
	}
	amounts := rng.Perm(nBids)
	for id := 1; id <= nBids; id++ {
		run(c, "INSERT INTO bids (id, item_id, amount) VALUES (?, ?, ?)", i64(id), i64(1+rng.Intn(nItems)), i64(100+amounts[id-1]))
	}

	reads := func(ex sqldb.Execer) {
		// Pinned to one shard by key.
		run(ex, "SELECT name, qty FROM items WHERE id = ?", i64(1+rng.Intn(nItems)))
		run(ex, "SELECT id, amount FROM bids WHERE item_id = ? ORDER BY id", i64(1+rng.Intn(nItems)))
		run(ex, "SELECT i.name, b.amount FROM items i JOIN bids b ON b.item_id = i.id WHERE i.id = ? ORDER BY b.id", i64(1+rng.Intn(nItems)))
		run(ex, "SELECT name FROM categories WHERE id = ?", i64(1+rng.Intn(nCats)))
		// Scatter: ORDER BY on a selected and an unselected key, LIMIT,
		// COUNT(*), a join against a global table.
		run(ex, "SELECT id, end_date FROM items ORDER BY end_date DESC LIMIT 5")
		run(ex, "SELECT id FROM items ORDER BY end_date LIMIT 5")
		run(ex, "SELECT id, qty FROM items ORDER BY id DESC LIMIT 6")
		run(ex, "SELECT id FROM items WHERE qty = ?", i64(rng.Intn(10)))
		run(ex, "SELECT COUNT(*) FROM items")
		run(ex, "SELECT COUNT(*) FROM bids WHERE amount = ?", i64(100+rng.Intn(nBids)))
		run(ex, "SELECT COUNT(*) FROM items WHERE qty = 1000")
		run(ex, "SELECT i.id, c.name FROM items i JOIN categories c ON i.category = c.id ORDER BY i.id LIMIT 7")
		// Non-ASCII text ahead of the rewritten select list: the scatter
		// rewrite must splice at a byte offset of this text, not of an
		// upper-cased copy.
		run(ex, "SELECT id FROM items WHERE name = 'ıı' ORDER BY id LIMIT 5")
		run(ex, "SELECT id -- ıı\nFROM items ORDER BY end_date LIMIT 5")
	}
	writes := func(ex sqldb.Execer) {
		run(ex, "UPDATE items SET qty = ? WHERE id = ?", i64(rng.Intn(10)), i64(1+rng.Intn(nItems)))
		run(ex, "UPDATE items SET qty = qty + 1 WHERE qty = ?", i64(rng.Intn(6)))
		run(ex, "DELETE FROM bids WHERE amount = ?", i64(100+rng.Intn(6)))
		run(ex, "UPDATE categories SET name = ? WHERE id = ?", sqldb.String(fmt.Sprintf("cat-v%d", rng.Intn(100))), i64(1+rng.Intn(nCats)))
	}
	// Multi-row INSERTs whose rows span shards: split by owner on a
	// sharded tier, one statement on an unsharded one.
	bidRows := func(first, n int) (string, []sqldb.Value) {
		var b strings.Builder
		var args []sqldb.Value
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(?, ?, ?)")
			args = append(args, i64(first+i), i64(1+rng.Intn(nItems)), i64(500+first+i))
		}
		return "INSERT INTO bids (id, item_id, amount) VALUES " + b.String(), args
	}
	q, args := bidRows(nBids+1, 7)
	run(c, q, args...)
	run(c, "INSERT INTO categories (id, name) VALUES (?, ?), (?, ?)", i64(nCats+1), sqldb.String("cat-x"), i64(nCats+2), sqldb.String("cat-y"))
	reads(c)
	reads(c) // again: with the query cache on, these are served from it
	writes(c)
	reads(c)

	// A transaction that commits, declaring a global table: on a sharded
	// tier it opens every shard and commits through 2PC.
	note("WithTx commit", c.WithTx([]string{"items", "bids", "categories"}, func(tx *Session) error {
		run(tx, "UPDATE items SET qty = ? WHERE id = ?", i64(77), i64(3))
		run(tx, "UPDATE items SET qty = ? WHERE id = ?", i64(78), i64(4))
		run(tx, "INSERT INTO bids (id, item_id, amount) VALUES (?, ?, ?)", i64(nBids+8), i64(3), i64(900))
		q, args := bidRows(nBids+9, 5)
		run(tx, q, args...)
		run(tx, "UPDATE categories SET name = ? WHERE id = ?", sqldb.String("cat-txn"), i64(2))
		writes(tx)
		reads(tx)
		run(tx, "COMMIT")
		return nil
	}))
	// One that rolls back, staying on the one shard its key pins.
	note("WithTx rollback", c.WithTx([]string{"items"}, func(tx *Session) error {
		run(tx, "UPDATE items SET qty = ? WHERE id = ?", i64(999), i64(5))
		run(tx, "SELECT qty FROM items WHERE id = ?", i64(5))
		return errScriptRollback
	}))
	run(c, "SELECT qty FROM items WHERE id = ?", i64(5))
	// A spanning INSERT in a transaction that rolls back leaves nothing.
	note("WithTx split rollback", c.WithTx([]string{"bids"}, func(tx *Session) error {
		q, args := bidRows(nBids+20, 6)
		run(tx, q, args...)
		run(tx, "SELECT COUNT(*) FROM bids")
		return errScriptRollback
	}))
	run(c, "SELECT COUNT(*) FROM bids")
	// Read-only work: a session's reads with no transaction open.
	s, err := c.Get()
	note("Get", err)
	if err == nil {
		reads(s)
		run(s, "BEGIN")
		c.Put(s, false)
	}
	for _, q := range []string{"BEGIN", "START TRANSACTION", "COMMIT", "ROLLBACK"} {
		run(c, q)
	}
	writes(c)
	reads(c)
	return out
}

// outcome renders one statement's result canonically: an error by class,
// a result by columns, rows (sorted unless the statement orders them) and
// counters.
func outcome(q string, res *sqldb.Result, err error) string {
	switch {
	case errors.Is(err, ErrTxnControlText):
		return "ErrTxnControlText"
	case errors.Is(err, errScriptRollback):
		return "rolled back"
	case err != nil:
		return "error"
	case res == nil:
		return "ok"
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	if !strings.Contains(q, "ORDER BY") {
		sort.Strings(rows)
	}
	return fmt.Sprintf("%v %v affected=%d", res.Columns, rows, res.RowsAffected)
}

// topologyState reads every table's final rows off the backends directly:
// the replicas of a shard must be identical, a global table identical on
// every shard, and a sharded table's rows disjoint across shards; the line
// per table is the union over shards.
func topologyState(t *testing.T, groups [][]*testReplica) []string {
	t.Helper()
	var out []string
	for _, tbl := range []struct {
		name   string
		global bool
	}{{"items", false}, {"bids", false}, {"categories", true}} {
		seen := map[string]int{}
		for si, g := range groups {
			var first []string
			for ri, r := range g {
				var rows []string
				for _, row := range queryReplica(t, r, "SELECT * FROM "+tbl.name+" ORDER BY id").Rows {
					rows = append(rows, fmt.Sprint(row))
				}
				if ri == 0 {
					first = rows
				} else if fmt.Sprint(rows) != fmt.Sprint(first) {
					t.Errorf("%s: shard %d replica %d diverged from replica 0:\n%v\n%v", tbl.name, si, ri, rows, first)
				}
			}
			for _, row := range first {
				seen[row]++
			}
		}
		var union []string
		for row, n := range seen {
			if tbl.global && n != len(groups) {
				t.Errorf("%s: global row %s on %d of %d shards", tbl.name, row, n, len(groups))
			}
			if !tbl.global && n != 1 {
				t.Errorf("%s: sharded row %s on %d shards", tbl.name, row, n)
			}
			union = append(union, row)
		}
		sort.Strings(union)
		out = append(out, fmt.Sprintf("final %s: %v", tbl.name, union))
	}
	return out
}
