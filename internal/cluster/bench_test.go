package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sqldb"
)

// BenchmarkClientPaths prices the client's two statement paths — auto-commit
// and transactional — over loopback wire servers, at one backend and at two:
// what a statement costs in this layer once the engine's share (a primary-key
// probe) is as small as it gets. The count is a sub-benchmark axis because
// both sizes run the same code.
func BenchmarkClientPaths(b *testing.B) {
	for _, n := range []int{1, 2} {
		c := newTestClient(b, startReplicas(b, n), Config{})
		id := sqldb.Int(3)
		for _, bc := range []struct {
			name string
			op   func() error
		}{
			{"read", func() error {
				_, err := c.Exec("SELECT qty FROM items WHERE id = ?", id)
				return err
			}},
			{"write", func() error {
				_, err := c.Exec("UPDATE items SET qty = qty + 1 WHERE id = ?", id)
				return err
			}},
			{"txn", func() error {
				return c.WithTx([]string{"items"}, func(tx *Session) error {
					if _, err := tx.Exec("SELECT qty FROM items WHERE id = ?", id); err != nil {
						return err
					}
					_, err := tx.Exec("UPDATE items SET qty = qty + 1 WHERE id = ?", id)
					return err
				})
			}},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := bc.op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
