package stack

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// countingExecer counts the statements sent through it.
type countingExecer struct {
	sqldb.Execer
	n *atomic.Int64
}

func (c countingExecer) Exec(q string, args ...sqldb.Value) (*sqldb.Result, error) {
	c.n.Add(1)
	return c.Execer.Exec(q, args...)
}

func (c countingExecer) ExecCached(q string, args ...sqldb.Value) (*sqldb.Result, error) {
	c.n.Add(1)
	return c.Execer.ExecCached(q, args...)
}

// BenchmarkSeed times seeding one application at DefaultScale two ways: the
// in-process fill every unsharded backend runs (fill), and the seed a
// 2-shard × 2-replica tier gets through a cluster client over the wire
// (routed-2x2, App.SeedCluster's path). It reports the cost per seeded row
// and stmts/row, the statements the seeding code sent to the database
// client per row.
func BenchmarkSeed(b *testing.B) {
	for _, name := range []string{"auction", "bookstore"} {
		a, err := AppByName(name, "default")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/fill", func(b *testing.B) {
			benchSeed(b, a, func(n *atomic.Int64) []*sqldb.DB {
				db, _, err := OpenDB(sqldb.WALOptions{}, func(ex sqldb.Execer) error {
					return a.Seed(countingExecer{ex, n}, 1)
				})
				if err != nil {
					b.Fatal(err)
				}
				return []*sqldb.DB{db}
			})
		})
		b.Run(name+"/routed-2x2", func(b *testing.B) {
			benchSeed(b, a, func(n *atomic.Int64) []*sqldb.DB {
				b.StopTimer()
				var dbs []*sqldb.DB
				var groups []string
				for s := 0; s < 2; s++ {
					var addrs []string
					for r := 0; r < 2; r++ {
						db := sqldb.New()
						srv := wire.NewServer(db, nil)
						addr, err := srv.Listen("127.0.0.1:0")
						if err != nil {
							b.Fatal(err)
						}
						b.Cleanup(func() { srv.Close() })
						dbs = append(dbs, db)
						addrs = append(addrs, addr.String())
					}
					groups = append(groups, strings.Join(addrs, ","))
				}
				b.StartTimer()
				cl := cluster.NewWithConfig(cluster.Config{DSN: strings.Join(groups, ";"), PoolSize: 4, ShardBy: a.ShardBy})
				defer cl.Close()
				if err := a.Seed(countingExecer{cl, n}, 1); err != nil {
					b.Fatal(err)
				}
				return []*sqldb.DB{dbs[0], dbs[2]} // replica 0 of each shard
			})
		})
	}
}

// benchSeed runs seed b.N times and reports ns/row and stmts/row over the
// rows seeded: every table of the first shard's database, and the sharded
// tables of the others (their global tables are copies).
func benchSeed(b *testing.B, a *App, seed func(n *atomic.Int64) []*sqldb.DB) {
	var stmts atomic.Int64
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		for si, db := range seed(&stmts) {
			for _, name := range db.TableNames() {
				if _, sharded := a.ShardBy[name]; si > 0 && !sharded {
					continue
				}
				t, _ := db.Table(name)
				rows += t.RowCount()
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	b.ReportMetric(float64(stmts.Load())/float64(b.N)/float64(rows), "stmts/row")
}
