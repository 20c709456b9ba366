package sqldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqldb/walfault"
)

// Test logs checkpoint only when a test asks for it.
func testWALOpts(dir string) WALOptions {
	return WALOptions{Dir: dir, CheckpointBytes: -1}
}

// walStatus reads the log's LSN gauges through SHOW WAL STATUS, their one
// read path.
func walStatus(t *testing.T, db *DB) (last, durable, ckpt uint64) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	row := walMustExec(t, s, "SHOW WAL STATUS").Rows[0]
	return uint64(row[1].AsInt()), uint64(row[2].AsInt()), uint64(row[3].AsInt())
}

func walMustExec(t *testing.T, s *Session, q string, args ...Value) *Result {
	t.Helper()
	res, err := s.Exec(q, args...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func walSchema(t *testing.T, s *Session) {
	t.Helper()
	walMustExec(t, s, `CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(32), qty INT)`)
	walMustExec(t, s, `CREATE INDEX byname ON items (name)`)
	walMustExec(t, s, `CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, item INT, delta INT)`)
}

// dbDump renders the full engine state — schema, rows in scan order, rowid
// and AUTO_INCREMENT counters, index definitions — for byte-identity
// assertions between a recovered instance and the original.
func dbDump(t *testing.T, db *DB) string {
	t.Helper()
	sess := db.NewSession()
	defer sess.Close()
	var b strings.Builder
	for _, name := range db.TableNames() {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Exec("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		ixs := make([]string, 0, len(tb.indexes))
		for n, ix := range tb.indexes {
			ixs = append(ixs, fmt.Sprintf("%s:%d:%v", n, ix.col, ix.unique))
		}
		sortStrings(ixs)
		fmt.Fprintf(&b, "%s cols=%v ids=%d ai=%d/%d/%d ix=%v rows=%v\n",
			name, tb.columns, tb.nextID, tb.nextAI, tb.aiOffset, tb.aiStride, ixs, res.Rows)
	}
	return b.String()
}

// recoverDB attaches a fresh engine to dir and returns it with the info.
func recoverDB(t *testing.T, dir string) (*DB, *RecoveryInfo) {
	t.Helper()
	db := New()
	info, err := db.AttachWAL(testWALOpts(dir))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	t.Cleanup(func() { db.CloseWAL() })
	return db, info
}

// TestWALRoundTrip: commits (auto-commit, transaction, DDL) survive a clean
// close and are byte-identically recovered — log-only, no checkpoint.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES (?, ?)", String("widget"), Int(7))
	walMustExec(t, s, "BEGIN")
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('gadget', 2)")
	walMustExec(t, s, "INSERT INTO audit (item, delta) VALUES (2, 2)")
	walMustExec(t, s, "COMMIT")
	// A rolled-back transaction must leave no trace in the log.
	walMustExec(t, s, "BEGIN")
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('ghost', 99)")
	walMustExec(t, s, "ROLLBACK")
	walMustExec(t, s, "UPDATE items SET qty = qty + 1 WHERE name = 'widget'")
	walMustExec(t, s, "DELETE FROM audit WHERE delta = 0")
	walMustExec(t, s, "ALTER TABLE audit AUTO_INCREMENT OFFSET 2 STRIDE 4")
	s.Close()
	want := dbDump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, info := recoverDB(t, dir)
	if !info.Recovered || info.ReplayedStmts == 0 {
		t.Fatalf("expected replayed recovery, got %+v", info)
	}
	if got := dbDump(t, db2); got != want {
		t.Fatalf("recovered state differs:\n got: %s\nwant: %s", got, want)
	}
	// The ghost row really is absent.
	sess := db2.NewSession()
	defer sess.Close()
	res := walMustExec(t, sess, "SELECT COUNT(*) FROM items WHERE name = 'ghost'")
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatal("rolled-back insert resurfaced after recovery")
	}
}

// TestWALCrashKeepsAckedWrites: every write acknowledged before a simulated
// power cut must survive recovery (the durability contract), and the
// recovered state equals the pre-crash committed state exactly.
func TestWALCrashKeepsAckedWrites(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	for i := 0; i < 50; i++ {
		walMustExec(t, s, "INSERT INTO items (name, qty) VALUES (?, ?)",
			String(fmt.Sprintf("item-%03d", i)), Int(int64(i)))
	}
	s.Close()
	want := dbDump(t, db)
	db.WAL().Crash()

	db2, info := recoverDB(t, dir)
	if got := dbDump(t, db2); got != want {
		t.Fatalf("acked writes lost (recovered through LSN %d):\n got: %s\nwant: %s",
			info.ReplayLSN, got, want)
	}
}

// TestWALTornTail: garbage and a truncated record at the log's tail are cut
// at the first bad checksum; the intact prefix replays, recovery reports
// where it stopped, and a second recovery from the truncated log agrees.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('kept', 1)")
	s.Close()
	want := dbDump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: half a record (a plausible length prefix with
	// not enough bytes behind it) at the end of the active segment.
	_, segs, err := scanWALDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	seg := segPath(dir, segs[len(segs)-1])
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3} // claims 64B payload, has 3
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, info := recoverDB(t, dir)
	if !info.TornTail {
		t.Fatalf("expected torn tail, got %+v", info)
	}
	if got := dbDump(t, db2); got != want {
		t.Fatalf("torn-tail recovery diverged:\n got: %s\nwant: %s", got, want)
	}
	if info.ReplayLSN == 0 {
		t.Fatal("recovery did not report the LSN it stopped at")
	}
	db2.CloseWAL()

	// The truncation is durable: recovering again sees a clean (not torn)
	// log ending at the same LSN.
	db3, info3 := recoverDB(t, dir)
	if info3.TornTail {
		t.Fatal("second recovery still sees a torn tail; truncation not persisted")
	}
	if got := dbDump(t, db3); got != want {
		t.Fatal("second recovery diverged")
	}
}

// TestWALCheckpointAndRecover: recovery from a checkpoint plus a log suffix,
// with superseded segments garbage-collected by the rotation.
func TestWALCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	for i := 0; i < 20; i++ {
		walMustExec(t, s, "INSERT INTO items (name, qty) VALUES (?, ?)", String("pre"), Int(int64(i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		walMustExec(t, s, "INSERT INTO items (name, qty) VALUES (?, ?)", String("post"), Int(int64(i)))
	}
	s.Close()
	want := dbDump(t, db)
	_, _, ckptLSN := walStatus(t, db)
	if n := db.Telemetry().WALCheckpoints; n != 1 || ckptLSN == 0 {
		t.Fatalf("checkpoint not recorded: %d checkpoints, checkpoint lsn %d", n, ckptLSN)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, info := recoverDB(t, dir)
	if info.CheckpointLSN != ckptLSN {
		t.Fatalf("recovered from checkpoint %d, want %d", info.CheckpointLSN, ckptLSN)
	}
	// Only the post-checkpoint suffix should replay.
	if info.ReplayedStmts != 7 {
		t.Fatalf("replayed %d statements, want 7", info.ReplayedStmts)
	}
	if got := dbDump(t, db2); got != want {
		t.Fatalf("checkpoint recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestWALCheckpointOnlyRecovery: a checkpoint with an empty log suffix
// recovers from the snapshot alone.
func TestWALCheckpointOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('only', 1)")
	s.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dbDump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info := recoverDB(t, dir)
	if info.ReplayedStmts != 0 {
		t.Fatalf("checkpoint-only recovery replayed %d statements", info.ReplayedStmts)
	}
	if got := dbDump(t, db2); got != want {
		t.Fatalf("diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestWALMidCheckpointCrash: a crash during the checkpoint write leaves the
// previous checkpoint authoritative; recovery replays the longer suffix and
// the half-written temp file is ignored and cleaned up.
func TestWALMidCheckpointCrash(t *testing.T) {
	dir := t.TempDir()
	db := New()
	hook := walfault.New()
	opts := testWALOpts(dir)
	opts.Fault = hook
	if _, err := db.AttachWAL(opts); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('first', 1)")
	if err := db.Checkpoint(); err != nil { // checkpoint #1, clean
		t.Fatal(err)
	}
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('second', 2)")
	s.Close()
	want := dbDump(t, db)

	hook.Set(walfault.MidCheckpoint, 1, func() { db.WAL().Crash() })
	if err := db.Checkpoint(); err == nil { // checkpoint #2 dies mid-write
		t.Fatal("checkpoint should have failed at the crash point")
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt.tmp")); err != nil {
		t.Fatalf("expected half-written ckpt.tmp on disk: %v", err)
	}

	db2, info := recoverDB(t, dir)
	if got := dbDump(t, db2); got != want {
		t.Fatalf("mid-checkpoint crash recovery diverged:\n got: %s\nwant: %s", got, want)
	}
	if info.ReplayedStmts == 0 {
		t.Fatal("expected a replay from the previous checkpoint")
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt.tmp")); !os.IsNotExist(err) {
		t.Fatal("recovery left the stale ckpt.tmp behind")
	}
}

// TestWALMidRotateCrash: a crash after the new segment is created but
// before old ones are garbage-collected leaves overlapping segments;
// recovery must handle the overlap (skip what the checkpoint covers).
func TestWALMidRotateCrash(t *testing.T) {
	dir := t.TempDir()
	db := New()
	hook := walfault.New()
	opts := testWALOpts(dir)
	opts.Fault = hook
	if _, err := db.AttachWAL(opts); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('pre-rotate', 1)")
	s.Close()
	want := dbDump(t, db)

	hook.Set(walfault.MidRotate, 1, func() { db.WAL().Crash() })
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint should have failed at the rotate crash point")
	}
	_, segs, err := scanWALDir(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("expected overlapping segments after mid-rotate crash, got %v (%v)", segs, err)
	}

	db2, _ := recoverDB(t, dir)
	if got := dbDump(t, db2); got != want {
		t.Fatalf("mid-rotate crash recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestWALPreAppendCrash: a crash before the record enters the buffer loses
// the commit — and the committer learns it (error), so nothing acked is
// lost.
func TestWALPreAppendCrash(t *testing.T) {
	dir := t.TempDir()
	db := New()
	hook := walfault.New()
	opts := testWALOpts(dir)
	opts.Fault = hook
	if _, err := db.AttachWAL(opts); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('kept', 1)")
	want := dbDump(t, db) // state the log can reproduce

	hook.Set(walfault.PreAppend, 1, func() { db.WAL().Crash() })
	if _, err := s.Exec("INSERT INTO items (name, qty) VALUES ('lost', 2)"); err == nil {
		t.Fatal("commit during crash should not be acknowledged")
	}
	s.Close()

	db2, _ := recoverDB(t, dir)
	if got := dbDump(t, db2); got != want {
		t.Fatalf("pre-append crash recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestWALPostAppendPreFsyncCrash: the record was written but never fsynced
// when the power died — the pessimal model drops it, the committer got an
// error, and recovery lands on the pre-crash acked state.
func TestWALPostAppendPreFsyncCrash(t *testing.T) {
	dir := t.TempDir()
	db := New()
	hook := walfault.New()
	opts := testWALOpts(dir)
	opts.Fault = hook
	if _, err := db.AttachWAL(opts); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('kept', 1)")
	want := dbDump(t, db)

	// The hook runs on this goroutine — the committer leads its own group —
	// between the write and the fsync.
	hook.Set(walfault.PostAppendPreFsync, 1, func() { db.WAL().Crash() })
	if _, err := s.Exec("INSERT INTO items (name, qty) VALUES ('unsynced', 2)"); err == nil {
		t.Fatal("commit whose fsync died should not be acknowledged")
	}
	s.Close()

	db2, _ := recoverDB(t, dir)
	if got := dbDump(t, db2); got != want {
		t.Fatalf("post-append-pre-fsync crash recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestWALVisibleBeforeDurable pins the order of publication and fsync: a
// commit is visible to every other session before its record is durable,
// and only the committer's acknowledgement waits for the fsync. The hook
// runs on the committing goroutine, between the leader's write and its
// fsync.
func TestWALVisibleBeforeDurable(t *testing.T) {
	dir := t.TempDir()
	db := New()
	hook := walfault.New()
	opts := testWALOpts(dir)
	opts.Fault = hook
	if _, err := db.AttachWAL(opts); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	walSchema(t, s)
	var rows, last, durable int64
	hook.Set(walfault.PostAppendPreFsync, 1, func() {
		other := db.NewSession()
		defer other.Close()
		rows = walMustExec(t, other, "SELECT COUNT(*) FROM items WHERE name = 'early'").Rows[0][0].AsInt()
		st := walMustExec(t, other, "SHOW WAL STATUS").Rows[0]
		last, durable = st[1].AsInt(), st[2].AsInt()
	})
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('early', 1)")
	if rows != 1 {
		t.Fatalf("another session counted %d rows before the fsync, want the commit visible", rows)
	}
	if durable >= last {
		t.Fatalf("durable_lsn %d, last_lsn %d before the fsync: the commit was already durable", durable, last)
	}
}

// TestWALPartialAutoCommitReplay: MyISAM partial application — a multi-row
// auto-commit INSERT that dies on a duplicate key keeps its earlier rows —
// must reproduce identically through the log.
func TestWALPartialAutoCommitReplay(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walMustExec(t, s, `CREATE TABLE u (id INT PRIMARY KEY, v INT)`)
	walMustExec(t, s, "INSERT INTO u (id, v) VALUES (5, 0)")
	if _, err := s.Exec("INSERT INTO u (id, v) VALUES (1, 1), (2, 2), (5, 5), (9, 9)"); err == nil {
		t.Fatal("expected duplicate-key failure")
	}
	s.Close()
	want := dbDump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info := recoverDB(t, dir)
	if info.ReplayErrors != 1 {
		t.Fatalf("replay errors %d, want 1 (the logged failing INSERT)", info.ReplayErrors)
	}
	if got := dbDump(t, db2); got != want {
		t.Fatalf("partial-application replay diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestWALPopulateThenAttach: the boot order for a fresh data directory —
// populate in memory first, then attach — must checkpoint the populated
// state immediately so it is durable without per-statement logging.
func TestWALPopulateThenAttach(t *testing.T) {
	dir := t.TempDir()
	db := New()
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('seeded', 1)")
	s.Close()
	want := dbDump(t, db)
	info, err := db.AttachWAL(testWALOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("fresh dir should not report recovery")
	}
	if db.Telemetry().WALCheckpoints != 1 {
		t.Fatal("populate-then-attach should write the initial checkpoint")
	}
	db.WAL().Crash() // nothing logged since attach; the checkpoint carries it all

	db2, info2 := recoverDB(t, dir)
	if !info2.Recovered {
		t.Fatal("expected recovery from the initial checkpoint")
	}
	if got := dbDump(t, db2); got != want {
		t.Fatalf("initial-checkpoint recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestWALGroupCommit: concurrent committers share fsyncs — a committer that
// arrives while a leader's fsync is in flight is covered by the next one,
// together with everyone else who arrived meanwhile — and sharing loses
// nothing: every acknowledged row survives a power cut.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	db := New()
	hook := walfault.New()
	opts := testWALOpts(dir)
	opts.Fault = hook
	if _, err := db.AttachWAL(opts); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	s.Close()
	base := db.Telemetry()

	const workers, each = 8, 25
	// Hold the first leader between write and fsync until every worker has
	// appended: the next group then covers all the others at once, however
	// fast this disk's fsync is.
	hook.Set(walfault.PostAppendPreFsync, 1, func() {
		for deadline := time.Now().Add(5 * time.Second); db.Telemetry().WALAppends-base.WALAppends < workers; {
			if time.Now().After(deadline) {
				t.Error("workers never queued behind the first leader")
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < each; i++ {
				if _, err := sess.Exec("INSERT INTO audit (item, delta) VALUES (?, ?)",
					Int(int64(wkr)), Int(int64(i))); err != nil {
					t.Errorf("worker %d: %v", wkr, err)
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	st := db.Telemetry()
	appends := st.WALAppends - base.WALAppends
	fsyncs := st.WALFsyncs - base.WALFsyncs
	if appends != workers*each {
		t.Fatalf("appends %d, want %d", appends, workers*each)
	}
	if fsyncs >= appends {
		t.Fatalf("no group commit: %d fsyncs for %d appends", fsyncs, appends)
	}
	if last, durable, _ := walStatus(t, db); durable < last {
		t.Fatalf("acked commits not durable: durable %d < last %d", durable, last)
	}
	db.WAL().Crash()

	db2, _ := recoverDB(t, dir)
	s2 := db2.NewSession()
	defer s2.Close()
	perWorker := map[int64]int{}
	for _, row := range walMustExec(t, s2, "SELECT item FROM audit").Rows {
		perWorker[row[0].AsInt()]++
	}
	if len(perWorker) != workers {
		t.Fatalf("recovered rows for %d workers, want %d", len(perWorker), workers)
	}
	for wkr, n := range perWorker {
		if n != each {
			t.Fatalf("worker %d: %d acked rows survived the crash, want %d", wkr, n, each)
		}
	}
}

// TestWALLoneCommitterOneFsyncEach: with nobody to share with, every commit
// is its own group — one fsync per append, none invented, none skipped —
// and the log owns no goroutine: the count is the same before AttachWAL and
// after Close.
func TestWALLoneCommitterOneFsyncEach(t *testing.T) {
	before := runtime.NumGoroutine()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	base := db.Telemetry()
	for i := 0; i < 200; i++ {
		walMustExec(t, s, "INSERT INTO audit (item, delta) VALUES (?, ?)", Int(1), Int(int64(i)))
	}
	s.Close()
	st := db.Telemetry()
	if a, f := st.WALAppends-base.WALAppends, st.WALFsyncs-base.WALFsyncs; a != 200 || f != a {
		t.Fatalf("%d appends, %d fsyncs; want 200 of each", a, f)
	}
	if last, durable, _ := walStatus(t, db); durable != last {
		t.Fatalf("durable %d, last %d", durable, last)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before AttachWAL, %d after Close", before, after)
	}
}

// TestWALCloseFlushesUnwaitedTail: a record appended but never waited on is
// written and fsynced by Close.
func TestWALCloseFlushesUnwaitedTail(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	s.Close()
	lsn := db.WAL().appendOne("INSERT INTO items (name, qty) VALUES ('tail', 1)", nil)
	if _, d, _ := walStatus(t, db); d >= lsn {
		t.Fatalf("record %d durable (%d) before anyone waited", lsn, d)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info := recoverDB(t, dir)
	if info.ReplayLSN != lsn {
		t.Fatalf("replayed through %d, want %d", info.ReplayLSN, lsn)
	}
	s2 := db2.NewSession()
	defer s2.Close()
	if n := walMustExec(t, s2, "SELECT COUNT(*) FROM items WHERE name = 'tail'").Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("%d tail rows after recovery, want 1", n)
	}
}

// TestWALWriteErrorIsSticky: once a group's write fails, that commit and
// every later one report the failure, and no later group reaches the file —
// a log with a hole in it would replay up to the hole and drop acked work.
func TestWALWriteErrorIsSticky(t *testing.T) {
	db := New()
	if _, err := db.AttachWAL(testWALOpts(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseWAL() })
	s := db.NewSession()
	defer s.Close()
	walSchema(t, s)
	_, durable, _ := walStatus(t, db)
	db.WAL().f.Close() // every write from here on fails
	_, first := s.Exec("INSERT INTO items (name, qty) VALUES ('a', 1)")
	if first == nil || !errors.Is(first, os.ErrClosed) {
		t.Fatalf("commit over a failing write: %v", first)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Exec("INSERT INTO items (name, qty) VALUES ('b', 2)"); err != first {
			t.Fatalf("later commit %d: %v, want the first failure %v", i, err, first)
		}
	}
	if _, d, _ := walStatus(t, db); d != durable {
		t.Fatalf("durability frontier moved %d → %d on a dead log", durable, d)
	}
}

// TestShowWALStatements: SHOW WAL STATUS, the one view of a backend's log
// on the wire, reports the log's own counters.
func TestShowWALStatements(t *testing.T) {
	db := New()
	if _, err := db.AttachWAL(testWALOpts(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	s := db.NewSession()
	defer s.Close()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES (?, ?)", String("x"), Int(1))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	row := walMustExec(t, s, "SHOW WAL STATUS").Rows[0]
	w := db.WAL()
	if row[0].AsInt() != 1 {
		t.Fatal("SHOW WAL STATUS says no wal attached")
	}
	if last := row[1].AsInt(); last < 4 || uint64(last) != w.nextLSN-1 {
		t.Fatalf("last_lsn %d, want >= 4 (3 DDL + 1 insert) and the log's %d", last, w.nextLSN-1)
	}
	if uint64(row[2].AsInt()) != w.durableLSN || uint64(row[3].AsInt()) != w.ckptLSN || w.ckptLSN == 0 {
		t.Fatalf("durable/checkpoint lsn %v, want the log's %d/%d", row, w.durableLSN, w.ckptLSN)
	}
}

// TestWALOnNilIsInert: a DB without a WAL answers SHOW WAL STATUS
// gracefully and pays no durability cost.
func TestWALOnNilIsInert(t *testing.T) {
	db := New()
	s := db.NewSession()
	defer s.Close()
	walSchema(t, s)
	st := walMustExec(t, s, "SHOW WAL STATUS")
	if st.Rows[0][0].AsInt() != 0 {
		t.Fatal("no-wal status should report attached=0")
	}
	if st := db.Telemetry(); st.WALAppends != 0 || st.WALFsyncs != 0 || st.WALBytes != 0 {
		t.Fatalf("wal-less engine counts log work: %+v", st.DBStats)
	}
}

// TestWALRefusesNonEmptyRecovery: recovering into a populated engine is a
// configuration error, not a silent merge.
func TestWALRefusesNonEmptyRecovery(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	s.Close()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	s2 := db2.NewSession()
	walMustExec(t, s2, "CREATE TABLE other (id INT PRIMARY KEY)")
	s2.Close()
	if _, err := db2.AttachWAL(testWALOpts(dir)); err == nil {
		t.Fatal("recovery into a non-empty engine must be refused")
	}
}

// TestWALAutoCheckpoint: crossing CheckpointBytes triggers a checkpoint
// from a group's leader without an explicit call.
func TestWALAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := New()
	opts := testWALOpts(dir)
	opts.CheckpointBytes = 4 << 10
	if _, err := db.AttachWAL(opts); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	for i := 0; i < 200; i++ {
		walMustExec(t, s, "INSERT INTO items (name, qty) VALUES (?, ?)",
			String(fmt.Sprintf("row-%04d-padding-padding-padding", i)), Int(int64(i)))
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for db.Telemetry().WALCheckpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic checkpoint after crossing CheckpointBytes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info := recoverDB(t, dir)
	if info.CheckpointLSN == 0 {
		t.Fatal("recovery should start from the automatic checkpoint")
	}
	if got, want := dbDump(t, db2), dbDump(t, db); got != want {
		t.Fatal("auto-checkpoint recovery diverged")
	}
}

// TestWALCheckpointNeverCyclesWithTxn: a checkpoint quiesces every table at
// once, but must not wait for one table's lock while holding the others —
// a transaction that holds the missing one and wants a held one would only
// get out by timing out.
func TestWALCheckpointNeverCyclesWithTxn(t *testing.T) {
	db := lockCycleDB(t)
	if _, err := db.AttachWAL(testWALOpts(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseWAL() })
	db.SetLockWaitTimeout(100 * time.Millisecond)
	var stop atomic.Bool
	var txns int
	done := make(chan struct{})
	go func() {
		defer close(done)
		txns = buyLoop(t, db, &stop)
	}()
	ckpts := 0
	for end := time.Now().Add(time.Second); time.Now().Before(end); ckpts++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-done
	if n := db.Telemetry().DeadlockTimeouts; n != 0 {
		t.Errorf("%d transactions aborted on a lock-wait timeout", n)
	}
	if txns < 20 || ckpts < 5 {
		t.Errorf("starved: %d transactions, %d checkpoints in 1s", txns, ckpts)
	}
}

// TestWALCheckpointWhileTxnOpen: a checkpoint captures committed state at a
// cut between commit sections and waits for no transaction: it returns while
// one holds its tables, its file holds none of that transaction's rows, and
// when the transaction then commits, a crash recovers its rows from the log
// on top of that checkpoint.
func TestWALCheckpointWhileTxnOpen(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	walSchema(t, s)
	walMustExec(t, s, "INSERT INTO items (name, qty) VALUES ('committed', 1)")
	a := db.NewSession()
	walMustExec(t, a, "BEGIN")
	walMustExec(t, a, "INSERT INTO items (name, qty) VALUES ('open', 2)")
	walMustExec(t, a, "INSERT INTO audit (item, delta) VALUES (2, 2)")

	done := make(chan error, 1)
	go func() { done <- db.Checkpoint() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the checkpoint waited for the open transaction")
	}
	_, _, lsn := walStatus(t, db)
	_, tables, err := loadCheckpoint(ckptPath(dir, lsn))
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if want := map[string]int{"items": 1, "audit": 0}[tb.name]; tb.RowCount() != want {
			t.Errorf("checkpoint holds %d rows of %s, want %d: the open transaction's are not committed state",
				tb.RowCount(), tb.name, want)
		}
	}

	walMustExec(t, a, "COMMIT")
	a.Close()
	s.Close()
	want := dbDump(t, db)
	db.WAL().Crash()
	db2, info := recoverDB(t, dir)
	if info.CheckpointLSN != lsn || info.ReplayedStmts != 2 {
		t.Errorf("recovered from checkpoint %d replaying %d statements, want checkpoint %d and the transaction's 2",
			info.CheckpointLSN, info.ReplayedStmts, lsn)
	}
	if got := dbDump(t, db2); got != want {
		t.Fatalf("recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}
