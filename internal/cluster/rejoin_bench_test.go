package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/auction"
	"repro/internal/cluster"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/stack"
)

// BenchmarkRejoin prices one Rejoin of a durable replica that missed N
// auto-commit INSERTs, at the auction's DefaultScale (about 24 000 rows)
// over two WAL-attached replicas on loopback. Outside the timer, each
// iteration closes replica 1's server, writes N rows through the client
// (the first write ejects the replica) and restarts the server on the same
// address over the same database; the timer covers Client.Rejoin(1, true)
// alone. The setup writes N fsynced rows per iteration, so pick the count:
//
//	go test -run '^$' -bench Rejoin -benchtime 5x ./internal/cluster
//
// It lives in an external test package because internal/stack, which
// builds the auction database, imports the cluster package.
func BenchmarkRejoin(b *testing.B) {
	app := stack.Auction(auction.DefaultScale())
	dbs := make([]*sqldb.DB, 2)
	srvs := make([]*wire.Server, 2)
	addrs := make([]string, 2)
	for i := range dbs {
		// No automatic checkpoint: the measured outage is the N writes.
		db, _, err := stack.OpenDB(sqldb.WALOptions{Dir: b.TempDir(), CheckpointBytes: -1},
			func(e sqldb.Execer) error { return app.Seed(e, 1) })
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.CloseWAL() })
		srv := wire.NewServer(db, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		dbs[i], srvs[i], addrs[i] = db, srv, addr.String()
	}
	b.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
	})
	c := cluster.NewWithConfig(cluster.Config{DSN: addrs[0] + "," + addrs[1]})
	b.Cleanup(func() { c.Close() })

	for _, n := range []int{10, 1000, 5000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srvs[1].Close()
				for k := 0; k < n; k++ {
					if _, err := c.Exec("INSERT INTO comments (from_user, to_user, item_id, rating, comment) VALUES (?, ?, ?, ?, ?)",
						sqldb.Int(1), sqldb.Int(2), sqldb.Int(3), sqldb.Int(int64(k%5)), sqldb.String("missed")); err != nil {
						b.Fatal(err)
					}
				}
				if c.Healthy() != 1 {
					b.Fatalf("replica 1 not ejected: %d healthy", c.Healthy())
				}
				srvs[1] = wire.NewServer(dbs[1], nil)
				if _, err := srvs[1].Listen(addrs[1]); err != nil {
					b.Skipf("cannot rebind %s: %v", addrs[1], err)
				}
				b.StartTimer()
				if err := c.Rejoin(1, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
