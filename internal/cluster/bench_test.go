package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/sqldb"
)

// errAbort is the contend rows' deliberate rollback.
var errAbort = errors.New("contention abort")

// BenchmarkClientPaths prices the client's two statement paths — auto-commit
// and transactional — over loopback wire servers, at one backend and at two:
// what a statement costs in this layer once the engine's share (a primary-key
// probe) is as small as it gets. The count is a sub-benchmark axis because
// both sizes run the same code.
//
// The parallel rows measure concurrency, not one caller's latency. readtx
// runs the same three point reads on a borrowed session with no transaction
// open (load-balanced auto-commit reads, MVCC snapshots, no cluster locks) and
// under WithTx (catch-all write-order lock, BEGIN/COMMIT to every replica,
// serializing the workers). contend runs the
// canonical short write transaction — read a row, insert a child, update
// the row — against 1, 4 and 32 hot rows, a third of the transactions
// rolling back, and reports replica 0's aborts and deadlock timeouts per op.
func BenchmarkClientPaths(b *testing.B) {
	for _, n := range []int{1, 2} {
		reps := startReplicas(b, n)
		c := newTestClient(b, reps, Config{})
		for j := 11; j <= 32; j++ { // the fixture's 10 rows, topped up to contend's 32
			mustExec(b, c, "INSERT INTO items (name, qty) VALUES ('hot', 100)")
		}
		id := sqldb.Int(3)
		threeReads := func(tx *Session) error {
			for _, id := range []int64{1, 2, 3} {
				if _, err := tx.Exec("SELECT qty FROM items WHERE id = ?", sqldb.Int(id)); err != nil {
					return err
				}
			}
			return nil
		}
		type row struct {
			name     string
			parallel bool
			op       func(seq int64) error
		}
		rows := []row{
			{"read", false, func(int64) error {
				_, err := c.Exec("SELECT qty FROM items WHERE id = ?", id)
				return err
			}},
			{"write", false, func(int64) error {
				_, err := c.Exec("UPDATE items SET qty = qty + 1 WHERE id = ?", id)
				return err
			}},
			{"txn", false, func(int64) error {
				return c.WithTx([]string{"items"}, func(tx *Session) error {
					if _, err := tx.Exec("SELECT qty FROM items WHERE id = ?", id); err != nil {
						return err
					}
					_, err := tx.Exec("UPDATE items SET qty = qty + 1 WHERE id = ?", id)
					return err
				})
			}},
			{"readtx/session", true, func(int64) error {
				s, err := c.Get()
				if err != nil {
					return err
				}
				defer c.Put(s, false)
				return threeReads(s)
			}},
			{"readtx/WithTx", true, func(int64) error { return c.WithTx(nil, threeReads) }},
		}
		for _, hot := range []int64{1, 4, 32} {
			hot := hot
			rows = append(rows, row{fmt.Sprintf("contend/hot=%d", hot), true, func(seq int64) error {
				item := sqldb.Int(1 + seq%hot)
				return c.WithTx([]string{"audit", "items"}, func(tx *Session) error {
					res, err := tx.Exec("SELECT qty FROM items WHERE id = ?", item)
					if err != nil {
						return err
					}
					if len(res.Rows) == 0 {
						return fmt.Errorf("missing item %v", item)
					}
					if _, err := tx.Exec("INSERT INTO audit (item, delta) VALUES (?, 1)", item); err != nil {
						return err
					}
					if _, err := tx.Exec("UPDATE items SET qty = qty + 1 WHERE id = ?", item); err != nil {
						return err
					}
					if seq%3 == 0 {
						return errAbort // a third of the transactions roll back
					}
					return nil
				})
			}})
		}
		for _, bc := range rows {
			b.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				if !bc.parallel {
					for i := 0; i < b.N; i++ {
						if err := bc.op(int64(i)); err != nil {
							b.Fatal(err)
						}
					}
					return
				}
				before := reps[0].db.Telemetry()
				var seq atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := bc.op(seq.Add(1)); err != nil && !errors.Is(err, errAbort) {
							b.Error(err)
							return
						}
					}
				})
				b.StopTimer()
				st := reps[0].db.Telemetry()
				b.ReportMetric(float64(st.Aborts-before.Aborts)/float64(b.N), "aborts/op")
				b.ReportMetric(float64(st.DeadlockTimeouts-before.DeadlockTimeouts)/float64(b.N), "dl_timeouts/op")
			})
		}
	}
}

// BenchmarkCacheKey prices the query cache's key for the auction's browse
// text with its two int arguments: the text, then per argument a NUL and
// the engine's value encoding. The string the key becomes is its one
// allocation.
func BenchmarkCacheKey(b *testing.B) {
	const q = "SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE region_id = ? AND category_id = ? ORDER BY end_date LIMIT 20"
	args := []sqldb.Value{sqldb.Int(3), sqldb.Int(17)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKey = cacheKey(q, args)
	}
}

var benchKey string
