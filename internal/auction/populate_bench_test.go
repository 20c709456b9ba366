package auction

import (
	"runtime"
	"testing"

	"repro/internal/sqldb"
)

// BenchmarkPopulate fills a bare engine at DefaultScale in multi-row
// auto-commit INSERTs, as every setup does, and reports the cost per stored row —
// the number the storage layer's in-place write path is held to — and the
// live heap per stored row once the fill is done: what the engine's
// representation of a value, a row and an index entry adds up to.
func BenchmarkPopulate(b *testing.B) {
	rows := 0
	var heap uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		db := sqldb.New()
		sess := db.NewSession()
		ex := sqldb.SessionExecer{S: sess}
		if err := CreateSchema(ex); err != nil {
			b.Fatal(err)
		}
		if err := Populate(ex, DefaultScale(), 1); err != nil {
			b.Fatal(err)
		}
		sess.Close()
		rows = 0
		for _, name := range db.TableNames() {
			t, _ := db.Table(name)
			rows += t.RowCount()
		}
		b.StopTimer()
		heap = liveHeap() - before
		runtime.KeepAlive(db)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	b.ReportMetric(float64(heap)/float64(rows), "heap-B/row")
	b.ReportMetric(float64(rows), "rows")
}

// liveHeap returns the bytes of heap still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
