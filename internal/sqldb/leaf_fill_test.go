package sqldb_test

import (
	"testing"

	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/sqldb"
)

// TestIndexLeafFill: the index trees' run split rule packs posting lists
// appended in rowid order — every secondary index as a population fills
// it — so after a DefaultScale population the index leaves are mostly full,
// where splitting each in the middle leaves auction's about 0.70 full.
func TestIndexLeafFill(t *testing.T) {
	for _, app := range []struct {
		name     string
		schema   func(sqldb.Execer) error
		populate func(sqldb.Execer) error
		min      float64
	}{
		{"auction", auction.CreateSchema, func(ex sqldb.Execer) error {
			return auction.Populate(ex, auction.DefaultScale(), 1)
		}, 0.75},
		{"bookstore", bookstore.CreateSchema, func(ex sqldb.Execer) error {
			return bookstore.Populate(ex, bookstore.DefaultScale(), 1)
		}, 0.80},
	} {
		db := sqldb.New()
		sess := db.NewSession()
		ex := sqldb.SessionExecer{S: sess}
		if err := app.schema(ex); err != nil {
			t.Fatal(err)
		}
		if err := app.populate(ex); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		fill := sqldb.IndexLeafFill(db)
		t.Logf("%s: index leaf fill %.3f", app.name, fill)
		if fill < app.min {
			t.Errorf("%s: index leaf fill %.3f, want at least %.2f", app.name, fill, app.min)
		}
	}
}
