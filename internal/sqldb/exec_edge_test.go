package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sqldb/sqlparse"
)

func TestLikeMatchPatterns(t *testing.T) {
	cases := []struct {
		s, pattern string
		want       bool
	}{
		// Literals.
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"abc", "abcd", false},
		{"ABC", "abc", false}, // byte-wise, case sensitive
		{"", "", true},
		{"abc", "", false},
		// % alone.
		{"", "%", true},
		{"abc", "%", true},
		{"abc", "%%", true},
		// % prefix/suffix/infix.
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a%c", true},
		{"ac", "a%c", true}, // % matches the empty run
		{"abc", "%d%", false},
		{"banana", "%ana", true},
		{"banana", "ana%", false},
		{"banana", "%ana%", true},
		{"banana", "b%na", true},
		// _ single byte.
		{"abc", "a_c", true},
		{"aXc", "a_c", true},
		{"ac", "a_c", false},
		{"abc", "___", true},
		{"abc", "__", false},
		{"a", "_", true},
		{"", "_", false},
		// Mixed % and _.
		{"hello world", "h%o w%d", true},
		{"hello world", "h_llo%", true},
		{"hello world", "%o_ld", true},
		{"hello world", "_%_", true},
		{"x", "_%_", false},
		// Adjacent wildcards.
		{"abc", "%_", true},
		{"", "%_", false},
		{"abc", "a%%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pattern); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pattern, got, c.want)
		}
	}
}

// selectOf parses a SELECT.
func selectOf(t *testing.T, query string) *sqlparse.Select {
	t.Helper()
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sqlparse.Select)
}

// TestCandidateIDsIndexSelection checks when the executor probes an index
// for its candidate rows (equalityProbe) versus a full scan.
func TestCandidateIDsIndexSelection(t *testing.T) {
	db, s := testDB(t)
	defer s.Close()
	mustExec(t, s, "INSERT INTO items (name, category, price, stock) VALUES"+
		" ('a', 1, 10, 1), ('b', 2, 20, 2), ('c', 2, 30, 3), ('d', 3, 40, 4)")
	tbl, err := db.Table("items")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		query   string
		args    []Value
		indexed bool
		want    int // candidate count when indexed
	}{
		{"indexed equality", "SELECT id FROM items WHERE category = 2", nil, true, 2},
		{"indexed equality param", "SELECT id FROM items WHERE category = ?", []Value{Int(3)}, true, 1},
		{"primary key", "SELECT id FROM items WHERE id = 1", nil, true, 1},
		{"reversed operands", "SELECT id FROM items WHERE 2 = category", nil, true, 2},
		{"conjunct uses index", "SELECT id FROM items WHERE category = 2 AND stock = 2", nil, true, 2},
		{"right conjunct", "SELECT id FROM items WHERE stock = 2 AND category = 2", nil, true, 2},
		{"unindexed column", "SELECT id FROM items WHERE name = 'a'", nil, false, 0},
		{"LIKE on an indexed column", "SELECT id FROM items WHERE category LIKE 2", nil, false, 0},
		{"column = column", "SELECT id FROM items WHERE category = stock", nil, false, 0},
		{"arithmetic on the column", "SELECT id FROM items WHERE category + 0 = 2", nil, false, 0},
		{"no where", "SELECT id FROM items", nil, false, 0},
		// A key absent from the index still resolves through it: the empty
		// posting list means "no rows", not "fall back to a scan".
		{"miss in index", "SELECT id FROM items WHERE category = 99", nil, true, 0},
		{"qualified by table name", "SELECT id FROM items WHERE items.category = 2", nil, true, 2},
		// An aliased FROM table is scanned, not probed (DESIGN.md §11): the
		// alias is not compared, and the table's own name may belong to a
		// joined table's alias, whose predicate must not narrow this one.
		{"aliased", "SELECT id FROM items i WHERE i.id = 1", nil, false, 0},
		{"shadowed by a join alias", "SELECT x.name FROM items x JOIN b items ON items.id = x.id WHERE items.category = 7", nil, false, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sel := selectOf(t, c.query)
			ix, v, err := equalityProbe(tbl, strings.ToLower(sel.From.Name()), sel.Where, c.args)
			if err != nil {
				t.Fatal(err)
			}
			if indexed := ix != nil; indexed != c.indexed {
				t.Fatalf("indexed = %v, want %v", indexed, c.indexed)
			}
			if ix == nil {
				return
			}
			var ids []int64
			if !tbl.probe(ix, v, func(id int64, _ Row) bool { ids = append(ids, id); return true }) {
				t.Fatalf("the index declined probe value %v", v)
			}
			if len(ids) != c.want {
				t.Fatalf("candidates = %v, want %d", ids, c.want)
			}
		})
	}
}

// TestMatchRowsIndexAndScanAgree runs the same predicates through the
// indexed path and a forced scan and requires identical row sets.
func TestMatchRowsIndexAndScanAgree(t *testing.T) {
	_, s := testDB(t)
	defer s.Close()
	for i := 0; i < 40; i++ {
		mustExec(t, s, "INSERT INTO items (name, category, price, stock) VALUES (?, ?, ?, ?)",
			String(fmt.Sprintf("item-%d", i)), Int(int64(i%5)), Float(float64(i)), Int(int64(i%7)))
	}
	queries := []string{
		"SELECT id FROM items WHERE category = 3 ORDER BY id",               // indexed
		"SELECT id FROM items WHERE category = 3 AND stock = 1 ORDER BY id", // indexed + residual filter
		"SELECT id FROM items WHERE stock = 1 ORDER BY id",                  // scan
	}
	for _, q := range queries {
		indexed := mustExec(t, s, q)
		// Defeat the index: equalityProbe sees no column = constant
		// conjunct in category + 0 = 3.
		scan := mustExec(t, s, strings.ReplaceAll(q, " = ", " + 0 = "))
		if len(indexed.Rows) == 0 {
			t.Fatalf("%s: empty result", q)
		}
		if len(indexed.Rows) != len(scan.Rows) {
			t.Fatalf("%s: indexed %d rows, scan %d rows", q, len(indexed.Rows), len(scan.Rows))
		}
		for i := range indexed.Rows {
			if indexed.Rows[i][0].AsInt() != scan.Rows[i][0].AsInt() {
				t.Fatalf("%s: row %d differs", q, i)
			}
		}
	}
}

// TestConcurrentPreparedExecution executes one shared cached AST from many
// sessions at once, mixing reads and writes, under -race: the executor must
// treat cached statements as immutable.
func TestConcurrentPreparedExecution(t *testing.T) {
	db, s := testDB(t)
	for i := 0; i < 20; i++ {
		mustExec(t, s, "INSERT INTO items (name, category, price, stock) VALUES (?, ?, ?, ?)",
			String(fmt.Sprintf("item-%d", i)), Int(int64(i%4)), Float(9.5), Int(10))
	}
	s.Close()

	sel, err := db.Prepare("SELECT id, name, price FROM items WHERE category = ?")
	if err != nil {
		t.Fatal(err)
	}
	upd, err := db.Prepare("UPDATE items SET stock = stock - ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					res, err := sess.ExecStmt(sel, Int(int64(i%4)))
					if err != nil {
						t.Errorf("select: %v", err)
						return
					}
					if len(res.Rows) == 0 {
						t.Error("select: no rows")
						return
					}
				} else {
					if _, err := sess.ExecStmt(upd, Int(0), Int(int64(1+i%20))); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// The same statements re-prepared must be cache hits.
	before := db.PlanCacheStats().Hits
	if _, err := db.Prepare("SELECT id, name, price FROM items WHERE category = ?"); err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheStats().Hits != before+1 {
		t.Fatal("re-prepare missed the plan cache")
	}
}

// TestCommittedScansRaceDeletingWriter: a scan reads a committed view that
// nobody writes, so any number run while a writer deletes from the same
// table (run with -race) — each sees one committed state whole: the rows
// that are left are a suffix, in rowid order, with nothing missing inside.
func TestCommittedScansRaceDeletingWriter(t *testing.T) {
	db, s := testDB(t)
	defer s.Close()
	const rows = 400
	for i := 0; i < rows; i++ {
		mustExec(t, s, "INSERT INTO items (name, category) VALUES (?, ?)", String(fmt.Sprint("n", i)), Int(int64(i%7)))
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := db.NewSession()
			defer r.Close()
			for last := rows; !done.Load(); {
				res, err := r.Exec("SELECT id FROM items")
				if err != nil {
					t.Error(err)
					return
				}
				n := len(res.Rows)
				if n > last {
					t.Errorf("scan saw %d rows after an earlier one saw %d", n, last)
				}
				last = n
				for i, row := range res.Rows {
					if want := int64(rows - n + 1 + i); row[0].AsInt() != want {
						t.Errorf("scan of %d rows: row %d has id %d, want %d", n, i, row[0].AsInt(), want)
						return
					}
				}
			}
		}()
	}
	for id := 1; id <= rows; id++ {
		mustExec(t, s, "DELETE FROM items WHERE id = ?", Int(int64(id)))
	}
	done.Store(true)
	wg.Wait()
	tab, err := db.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.RowCount(); n != 0 {
		t.Fatalf("%d rows left", n)
	}
	// Emptied from one end, the trees give their nodes back.
	if tab.rows.root != nil || tab.postings[0].root != nil {
		t.Fatal("an emptied table still holds tree nodes")
	}
}
