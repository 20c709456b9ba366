package auction

import (
	"testing"

	"repro/internal/sqldb"
)

// BenchmarkPopulate fills a bare engine at DefaultScale, one auto-commit
// INSERT per row as every setup does, and reports the cost per stored row —
// the number the storage layer's in-place write path is held to.
func BenchmarkPopulate(b *testing.B) {
	rows := 0
	for i := 0; i < b.N; i++ {
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
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	b.ReportMetric(float64(rows), "rows")
}
