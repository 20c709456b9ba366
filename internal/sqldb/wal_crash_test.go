package sqldb

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/sqldb/walfault"
)

// The hard-kill half of the crash harness: walfault's "exit" action is a
// real os.Exit(137) mid-commit, on the committing session's own goroutine —
// no deferred cleanup, the kill -9 stand-in — so it needs a real process to
// kill. The parent test re-execs the test binary as a child that inserts
// rows and records every acknowledged id (fsynced to a side file before the
// next insert), arms SQLDB_WALFAULT so the child dies at a WAL crash point,
// then recovers the data directory in-process and checks the durability
// contract: the surviving rows are a gapless prefix of the insert sequence
// that contains every acknowledged id.

const walCrashChildEnv = "WAL_CRASH_CHILD_DIR"

// TestWALCrashChildProcess is the child body; it only runs when the parent
// re-execs the binary with the env set, and it never returns normally —
// the armed fault kills it.
func TestWALCrashChildProcess(t *testing.T) {
	dir := os.Getenv(walCrashChildEnv)
	if dir == "" {
		t.Skip("parent-driven child process test")
	}
	hook, err := walfault.FromEnv(os.Exit)
	if err != nil || hook == nil {
		fmt.Fprintf(os.Stderr, "child: bad SQLDB_WALFAULT: %v\n", err)
		os.Exit(3)
	}
	db := New()
	ckptBytes := int64(-1) // matrix rows targeting MidCheckpoint enable auto-checkpointing
	if v := os.Getenv("WAL_CRASH_CKPT_BYTES"); v != "" {
		ckptBytes, _ = strconv.ParseInt(v, 10, 64)
	}
	opts := WALOptions{Dir: dir, CheckpointBytes: ckptBytes, Fault: hook}
	if _, err := db.AttachWAL(opts); err != nil {
		fmt.Fprintf(os.Stderr, "child: attach: %v\n", err)
		os.Exit(3)
	}
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE seq (id INT PRIMARY KEY)"); err != nil {
		fmt.Fprintf(os.Stderr, "child: schema: %v\n", err)
		os.Exit(3)
	}
	ack, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		os.Exit(3)
	}
	for i := 1; i <= 10000; i++ {
		if _, err := s.Exec("INSERT INTO seq (id) VALUES (?)", Int(int64(i))); err != nil {
			// A Crash()-style failure can't happen here (the fault action is
			// exit); any error is a real bug.
			fmt.Fprintf(os.Stderr, "child: insert %d: %v\n", i, err)
			os.Exit(3)
		}
		fmt.Fprintf(ack, "%d\n", i)
		if err := ack.Sync(); err != nil {
			os.Exit(3)
		}
	}
	// The fault should have killed us long before 10000 inserts.
	fmt.Fprintln(os.Stderr, "child: fault never fired")
	os.Exit(4)
}

// TestWALHardKillRecovery runs the kill matrix: for each crash point and
// hit count, a child process dies mid-commit via os.Exit(137) and the
// parent recovers its directory.
func TestWALHardKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	cases := []struct {
		point     walfault.Point
		hit       int
		ckptBytes int64 // 0 = auto-checkpoint disabled in the child
	}{
		{walfault.PreAppend, 5, 0},
		{walfault.PostAppendPreFsync, 3, 0},
		{walfault.PostAppendPreFsync, 20, 0},
		{walfault.MidCheckpoint, 1, 2 << 10},
		{walfault.MidRotate, 1, 2 << 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s@%d", tc.point, tc.hit), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			spec := fmt.Sprintf("%s:exit:%d", tc.point, tc.hit)
			cmd := exec.Command(os.Args[0], "-test.run", "^TestWALCrashChildProcess$", "-test.v")
			ckpt := int64(-1)
			if tc.ckptBytes > 0 {
				ckpt = tc.ckptBytes
			}
			cmd.Env = append(os.Environ(),
				walCrashChildEnv+"="+dir,
				"SQLDB_WALFAULT="+spec,
				fmt.Sprintf("WAL_CRASH_CKPT_BYTES=%d", ckpt),
			)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 137 {
				t.Fatalf("child (%s) exited %v, want 137:\n%s", spec, err, out)
			}

			acked := readAckedIDs(t, filepath.Join(dir, "acked"))
			db, info := recoverDB(t, dir)
			s := db.NewSession()
			defer s.Close()
			// Scan order is insert order (replay preserves it), so the rows
			// come back as the prefix 1..n without an ORDER BY.
			res, err := s.Exec("SELECT id FROM seq")
			if err != nil {
				t.Fatalf("recovered db unusable (info %+v): %v", info, err)
			}
			// Gapless prefix 1..n of the insert sequence…
			for i, row := range res.Rows {
				if row[0].AsInt() != int64(i+1) {
					t.Fatalf("row %d has id %d: recovered ids are not a gapless prefix", i, row[0].AsInt())
				}
			}
			// …that covers everything the child saw acknowledged.
			if len(res.Rows) < acked {
				t.Fatalf("recovered %d rows but child had %d acknowledged commits (info %+v)",
					len(res.Rows), acked, info)
			}
		})
	}
}

// readAckedIDs returns the highest insert id whose commit the child both
// received an ack for and durably noted. Ids are written in order, so the
// last complete line is the watermark; a torn final line (the child died
// mid-write) is ignored.
func readAckedIDs(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0 // died before the first ack
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	max := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if n, err := strconv.Atoi(sc.Text()); err == nil && n > max {
			max = n
		}
	}
	return max
}
