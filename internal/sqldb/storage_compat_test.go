package sqldb

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointTableBytesGolden: the checkpoint encoding of a fixed table —
// strided AUTO_INCREMENT, a unique and a non-unique secondary index, NULLs,
// an explicit id, a deleted row, updated rows, a rolled-back insert — is
// byte for byte what the engine wrote before the copy-on-write tree replaced
// the row map and rowOrder (hash recorded at PR 19, 1282f2b, over
// appendCkptTable of the table's frozen copy).
func TestCheckpointTableBytesGolden(t *testing.T) {
	db := New()
	s := db.NewSession()
	defer s.Close()
	for _, q := range []struct {
		sql  string
		args []Value
	}{
		{sql: "CREATE TABLE c (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(16) NOT NULL, grp INT, score FLOAT)"},
		{sql: "CREATE UNIQUE INDEX c_name ON c (name)"},
		{sql: "CREATE INDEX c_grp ON c (grp)"},
		{sql: "ALTER TABLE c AUTO_INCREMENT OFFSET 1 STRIDE 2"},
		{"INSERT INTO c (name, grp, score) VALUES ('a', 1, ?), ('b', 2, ?), ('c', 1, ?), ('d', ?, 4)",
			[]Value{Float(1.5), Null(), Float(3.25), Null()}},
		{sql: "INSERT INTO c (id, name, grp, score) VALUES (20, 'e', 2, 5)"},
		{sql: "DELETE FROM c WHERE name = 'b'"},
		{sql: "UPDATE c SET grp = 7, score = score + score WHERE grp = 1"},
		{sql: "BEGIN"},
		{sql: "INSERT INTO c (name, grp, score) VALUES ('ghost', 9, 9)"},
		{sql: "ROLLBACK"},
		{sql: "INSERT INTO c (name, grp, score) VALUES ('f', 7, 6)"},
	} {
		mustExec(t, s, q.sql, q.args...)
	}
	tab, err := db.Table("c")
	if err != nil {
		t.Fatal(err)
	}
	b := appendCkptTable(nil, tab)
	const want = "eed8d6530df7d70a2adf8464768fb982158227cb513a1714e74a40a1c21d8ed3"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != 317 || got != want {
		t.Fatalf("checkpoint encoding changed: %d bytes, sha256 %s; want 317 bytes, %s", len(b), got, want)
	}
}

// parentDump is dbDump of the engine that wrote testdata/wal-pr19 at PR 19.
const parentDump = "audit cols=[{id INT true true true} {item INT false false false} {delta INT false false false}] ids=3 ai=10/2/4 ix=[audit_item:1:false primary:0:true] rows=[[2 41 100] [6 41 -1]]\nitems cols=[{id INT true true true} {name VARCHAR false false false} {qty INT false false false}] ids=44 ai=52/0/0 ix=[byname:1:false primary:0:true] rows=[[8 \"item7\" 7] [9 \"item8\" 8] [10 \"item9\" 9] [11 \"item10\" 10] [12 \"item11\" 11] [13 \"item12\" 12] [14 \"item0\" 13] [15 \"item1\" 14] [16 \"item2\" 15] [17 \"item3\" 17] [18 \"item4\" 17] [19 \"item5\" 18] [20 \"renamed\" 19] [21 \"item7\" 20] [22 \"item8\" 21] [23 \"item9\" 22] [24 \"item10\" 23] [25 \"item11\" 24] [26 \"item12\" 25] [27 \"item0\" 26] [28 \"item1\" 27] [29 \"item2\" 28] [30 \"item3\" 30] [31 \"item4\" 30] [32 \"item5\" 31] [33 \"item6\" 32] [34 \"item7\" 33] [35 \"item8\" 34] [36 \"item9\" 35] [37 \"item10\" 36] [38 \"item11\" 37] [40 \"item0\" 39] [41 \"post-ckpt\" 100] [50 \"x\" 1] [51 \"y\" 2]]\n"

// TestRecoversParentWrittenDirectory: a checkpoint and a log segment written
// by the engine as it was before this storage layer (testdata/wal-pr19: 40
// inserts, a delete, an update and an ALTER under the checkpoint; a
// committed and a rolled-back transaction, a partially applied multi-row
// INSERT and a CREATE INDEX in the log after it) recover to the state that
// engine held.
func TestRecoversParentWrittenDirectory(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/wal-pr19/*")
	if err != nil || len(files) != 2 {
		t.Fatalf("fixture: %v, %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, info := recoverDB(t, dir)
	if info.CheckpointLSN == 0 || info.ReplayedStmts == 0 {
		t.Fatalf("recovery used checkpoint %d and replayed %d statements; the fixture has both",
			info.CheckpointLSN, info.ReplayedStmts)
	}
	if got := dbDump(t, db); got != parentDump {
		t.Fatalf("recovered state differs from what the writer held:\n got: %s\nwant: %s", got, parentDump)
	}
}

// foreignNodes counts the nodes of t's trees that t would have to copy
// before writing: none, for a table that was only ever written in place.
func foreignNodes(t *Table) (n int) {
	n = foreignIn(&t.rows)
	for i := range t.postings {
		n += foreignIn(&t.postings[i])
	}
	return n
}

func foreignIn[K, V any](t *cowTree[K, V]) int {
	var count func(n *cowNode[K, V]) int
	count = func(n *cowNode[K, V]) (c int) {
		if n.owner != t.owner {
			c = 1
		}
		for _, kid := range n.kids {
			c += count(kid)
		}
		return c
	}
	if t.root == nil {
		return 0
	}
	return count(t.root)
}

// TestBulkPathsBuildInPlace: auto-commit fills — row by row, the replica
// sync's 64-row INSERTs — checkpoint load and WAL replay never clone: with
// no reader in between, every node of every tree is still the one the
// writes made, so population costs what an insert costs and nothing per
// row for the storage being shareable.
func TestBulkPathsBuildInPlace(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	fill := func(from int) {
		for i := from; i < from+300; i++ {
			walMustExec(t, s, "INSERT INTO items (name, qty) VALUES (?, ?)", String(fmt.Sprint("n", i%40)), Int(int64(i)))
		}
		q, args := "INSERT INTO audit (item, delta) VALUES (?, ?)", []Value{Int(0), Int(0)}
		for i := 1; i < 64; i++ {
			q += ", (?, ?)"
			args = append(args, Int(int64(i)), Int(int64(-i)))
		}
		for batch := 0; batch < 5; batch++ {
			walMustExec(t, s, q, args...)
		}
	}
	check := func(db *DB, when string) {
		t.Helper()
		for _, name := range []string{"items", "audit"} {
			tab, err := db.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if n := foreignNodes(tab); n != 0 || tab.RowCount() == 0 {
				t.Errorf("%s: %d of %s's nodes (%d rows) were shared with a clone", when, n, name, tab.RowCount())
			}
		}
	}
	fill(0)
	check(db, "auto-commit fill")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fill(300)
	s.Close()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info := recoverDB(t, dir)
	if info.CheckpointLSN == 0 || info.ReplayedStmts != 305 {
		t.Fatalf("recovery: %+v, want a checkpoint and 305 replayed statements", info)
	}
	check(db2, "checkpoint load + replay")
}

// TestWALRemovedFormSkippedOnReplay: a log record an older engine wrote
// with a form the dialect has since dropped (here a column-less INSERT)
// does not replay. Recovery counts it in ReplayErrors and goes on with the
// records after it.
func TestWALRemovedFormSkippedOnReplay(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE fz (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO fz (id, v) VALUES (1, 1)")
	s.Close()
	last := db.WALStats().LastLSN
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	_, segs, err := scanWALDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v", err)
	}
	fh, err := os.OpenFile(segPath(dir, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendRecord(nil, last+1, []walStmt{
		{q: "INSERT INTO fz VALUES (2, 2)"},
		{q: "INSERT INTO fz (id, v) VALUES (3, ?)", args: []Value{Int(3)}},
	})
	if _, err := fh.Write(rec); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	db2, info := recoverDB(t, dir)
	if info.ReplayErrors != 1 || info.ReplayLSN != last+2 {
		t.Fatalf("replay: %d errors, stopped at LSN %d; want 1 error, LSN %d", info.ReplayErrors, info.ReplayLSN, last+2)
	}
	got := mustExec(t, db2.NewSession(), "SELECT id FROM fz ORDER BY id")
	if fmt.Sprint(got.Rows) != "[[1] [3]]" {
		t.Fatalf("recovered rows %v, want [[1] [3]]", got.Rows)
	}
}
