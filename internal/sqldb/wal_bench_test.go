package sqldb_test

import (
	"testing"

	"repro/internal/sqldb"
)

// BenchmarkWALCommitSweep prices durability (DESIGN.md §12): parallel
// auto-commit INSERTs against one engine, purely in memory versus through
// the write-ahead log. Acks follow fsync, so the wal mode pays real disk
// latency; the appends/fsync metric is the group-commit amortization — how
// many commits shared each fsync because they arrived while the previous
// one was in flight.
func BenchmarkWALCommitSweep(b *testing.B) {
	for _, mode := range []string{"mem", "wal"} {
		mode := mode
		b.Run("mode="+mode, func(b *testing.B) {
			db := sqldb.New()
			sess := db.NewSession()
			if _, err := sess.Exec(
				"CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"); err != nil {
				b.Fatal(err)
			}
			sess.Close()
			if mode == "wal" {
				if _, err := db.AttachWAL(sqldb.WALOptions{Dir: b.TempDir(), CheckpointBytes: -1}); err != nil {
					b.Fatal(err)
				}
				defer db.CloseWAL()
			}
			// The group-commit wait is I/O-bound, not CPU-bound: oversubscribe
			// the workers so concurrent commits exist to share an fsync even
			// on a single-CPU runner.
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s := db.NewSession()
				defer s.Close()
				for pb.Next() {
					if _, err := s.Exec("INSERT INTO t (v) VALUES (?)", sqldb.Int(1)); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if ws := db.Telemetry(); ws.WALFsyncs > 0 {
				b.ReportMetric(float64(ws.WALAppends)/float64(ws.WALFsyncs), "appends/fsync")
			}
		})
	}
}
