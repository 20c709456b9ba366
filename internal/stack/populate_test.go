package stack

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// populationDigest pins DefaultScale's unsharded population, both
// applications: every table's rows in scan order and SHOW TABLE STATUS
// (row counts and AUTO_INCREMENT counters), FNV-64a over the text. The
// value was recorded from the one-statement-per-row population that batched
// population replaced; the same rows with the same ids must come out.
const populationDigest = "72054d7d9b913a0c"

// TestPopulationDigest: batching changed how the population reaches the
// database, not what it is.
func TestPopulationDigest(t *testing.T) {
	h := fnv.New64a()
	for _, name := range []string{"bookstore", "auction"} {
		a, err := AppByName(name, "default")
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := OpenDB(sqldb.WALOptions{}, func(ex sqldb.Execer) error { return a.Seed(ex, 1) })
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range append([]string{"SHOW TABLE STATUS"}, selectAll(db)...) {
			fmt.Fprintf(h, "%s\n%s", q, rowsText(t, db, q))
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != populationDigest {
		t.Fatalf("population digest %s, want %s", got, populationDigest)
	}
}

// TestPopulationTopologyInvariant: the population seeded through a 2×2
// sharded tier is the 1×1 population split by owner. Every global table is
// identical on every backend; the union over shards of each sharded table
// equals the unsharded table row for row — auction items with their ids,
// which population assigns explicitly; the rows whose ids the strided
// counters generate (bids, comments, the bookstore's orders and their
// lines and credit information) without those ids, an order's lines and
// credit information joined to it on its own shard.
func TestPopulationTopologyInvariant(t *testing.T) {
	for _, a := range apps(t) {
		t.Run(a.Name, func(t *testing.T) {
			one := seedTier(t, a, 1, 1)
			two := seedTier(t, a, 2, 2)
			for _, q := range shardedViews[a.Name] {
				want := rowsText(t, one[0][0], q)
				var union []string
				for si, g := range two {
					for ri, db := range g {
						if ri > 0 {
							if got, first := rowsText(t, db, q), rowsText(t, g[0], q); got != first {
								t.Fatalf("shard %d replica %d diverged on %s", si, ri, q)
							}
							continue
						}
						union = append(union, strings.SplitAfter(rowsText(t, db, q), "\n")...)
					}
				}
				sort.Strings(union)
				if got := strings.Join(union, ""); got != sortedLines(want) {
					t.Errorf("%s: the shards' union differs from the unsharded rows", q)
				}
			}
			for _, table := range one[0][0].TableNames() {
				if _, sharded := a.ShardBy[table]; sharded {
					continue
				}
				q := "SELECT * FROM " + table
				want := rowsText(t, one[0][0], q)
				for si, g := range two {
					for ri, db := range g {
						if rowsText(t, db, q) != want {
							t.Errorf("global table %s differs on shard %d replica %d", table, si, ri)
						}
					}
				}
			}
		})
	}
}

// shardedViews are the queries that read each application's sharded tables
// for TestPopulationTopologyInvariant, leaving out the generated ids.
var shardedViews = map[string][]string{
	"auction": {
		"SELECT * FROM items",
		"SELECT item_id, user_id, bid, max_bid, qty, bid_date FROM bids",
		"SELECT from_user, to_user, item_id, rating, comment FROM comments",
		"SELECT item_id, buyer_id, qty, bn_date FROM buy_now",
	},
	"bookstore": {
		"SELECT customer_id, o_date, subtotal, total, status FROM orders",
		"SELECT o.customer_id, o.o_date, l.item_id, l.qty, l.discount FROM order_line l JOIN orders o ON o.id = l.order_id",
		"SELECT o.customer_id, o.o_date, c.cc_type, c.cc_number, c.cc_expiry, c.auth_id FROM credit_info c JOIN orders o ON o.id = c.order_id",
	},
}

// seedTier starts shards × replicas in-process backends behind the wire
// protocol, seeds a through a cluster client over them, and returns the
// backends' databases, by shard.
func seedTier(t *testing.T, a *App, shards, replicas int) [][]*sqldb.DB {
	t.Helper()
	out := make([][]*sqldb.DB, shards)
	groups := make([]string, shards)
	for si := range out {
		var addrs []string
		for ri := 0; ri < replicas; ri++ {
			db := sqldb.New()
			srv := wire.NewServer(db, nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			out[si] = append(out[si], db)
			addrs = append(addrs, addr.String())
		}
		groups[si] = strings.Join(addrs, ",")
	}
	if err := a.SeedCluster(cluster.Config{DSN: strings.Join(groups, ";"), PoolSize: 2}, 1); err != nil {
		t.Fatal(err)
	}
	return out
}

// selectAll is one SELECT * per table of db, in catalog order.
func selectAll(db *sqldb.DB) []string {
	var qs []string
	for _, table := range db.TableNames() {
		qs = append(qs, "SELECT * FROM "+table)
	}
	return qs
}

// rowsText renders q's rows on db one per line, in the order the engine
// returns them.
func rowsText(t *testing.T, db *sqldb.DB, q string) string {
	t.Helper()
	sess := db.NewSession()
	defer sess.Close()
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}
