package sqldb

import (
	"bytes"
	"os"
	"testing"
)

// FuzzWALRecord exercises the record codec and the recovery scan against
// hostile bytes. The invariants under fuzz:
//
//   - decodeRecord never panics, whatever the input;
//   - a decode that succeeds yields exactly what was encoded — truncated
//     tails surface as errWALNeedMore, and a single flipped bit is either
//     rejected or decodes to the identical statement list (crc32 detects
//     all single-bit errors; either way nothing corrupted is applied);
//   - full recovery over a log whose tail is fuzz garbage never panics,
//     never applies anything past the first bad checksum, and reports the
//     LSN it stopped at.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{}, "INSERT INTO items (name, qty) VALUES (?, ?)", int64(7), "widget", true)
	f.Add([]byte{0x40, 0, 0, 0, 0xde, 0xad}, "UPDATE items SET qty = 0", int64(-1), "", false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "DELETE FROM items", int64(1<<40), "x", true)
	f.Add(bytes.Repeat([]byte{0xff}, 64), "q", int64(0), "\x00\xff", false)

	f.Fuzz(func(t *testing.T, tail []byte, q string, iv int64, sv string, withNull bool) {
		// 1. Arbitrary bytes through the decoder: must not panic, and a
		// "successful" decode of garbage must still be internally consistent
		// (args decodable).
		if stmts, _, err := decodeRecord(tail); err == nil {
			for _, st := range stmts {
				if _, verr := st.values(); verr != nil {
					t.Fatalf("record decoded OK but args do not: %v", verr)
				}
			}
		}

		// 2. Round trip of a fuzz-shaped statement batch.
		args := []Value{Int(iv), String(sv), Float(float64(iv) / 3)}
		if withNull {
			args = append(args, Null())
		}
		stmts := []walStmt{{q: q, args: args}, {q: q + "/2", args: nil}}
		rec := appendRecord(nil, 41, stmts)

		got, rest, err := decodeRecord(rec)
		if err != nil || len(rest) != 0 {
			t.Fatalf("round trip decode: %v (rest %d)", err, len(rest))
		}
		if len(got) != 2 || got[0].lsn != 41 || got[1].lsn != 42 || got[0].q != q {
			t.Fatalf("round trip mismatch: %+v", got)
		}
		gotArgs, err := got[0].values()
		if err != nil || len(gotArgs) != len(args) {
			t.Fatalf("arg round trip: %v (%d args)", err, len(gotArgs))
		}
		for i := range args {
			if !identical(gotArgs[i], args[i]) {
				t.Fatalf("arg %d: got %v want %v", i, gotArgs[i], args[i])
			}
		}

		// 3. Every truncated tail of the record is "need more", never a
		// short successful decode and never a panic.
		for cut := 0; cut < len(rec); cut++ {
			if _, _, err := decodeRecord(rec[:cut]); err == nil {
				t.Fatalf("truncation at %d/%d decoded successfully", cut, len(rec))
			}
		}

		// 4. Single-bit corruption: rejected, or decodes to the identical
		// batch (never to different statements).
		flip := make([]byte, len(rec))
		stride := 1
		if len(rec) > 128 {
			stride = len(rec) * 8 / 512 // cap the sweep for big records
		}
		for bit := 0; bit < len(rec)*8; bit += stride {
			copy(flip, rec)
			flip[bit/8] ^= 1 << (bit % 8)
			fs, _, err := decodeRecord(flip)
			if err != nil {
				continue
			}
			if len(fs) != len(got) {
				t.Fatalf("bit %d flip decoded to %d statements", bit, len(fs))
			}
			for i := range fs {
				if fs[i].q != got[i].q || fs[i].lsn != got[i].lsn ||
					!bytes.Equal(fs[i].encArgs, got[i].encArgs) {
					t.Fatalf("bit %d flip decoded to different content", bit)
				}
			}
		}

		// 5. Recovery over a segment ending in the fuzz bytes: the two
		// committed inserts survive, nothing from the garbage applies, and
		// the reported stop LSN matches the intact prefix.
		dir := t.TempDir()
		db := New()
		if _, err := db.AttachWAL(testWALOpts(dir)); err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		for _, stmt := range []string{
			"CREATE TABLE fz (id INT PRIMARY KEY, v INT)",
			"INSERT INTO fz (id, v) VALUES (1, 1)",
			"INSERT INTO fz (id, v) VALUES (2, 2)",
		} {
			if _, err := s.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		want := dbDump(t, db)
		wantLSN, _, _ := walStatus(t, db)
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
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		fh.Close()

		db2, info := recoverDB(t, dir)
		if got := dbDump(t, db2); got != want {
			t.Fatalf("garbage tail changed recovered state:\n got: %s\nwant: %s", got, want)
		}
		if info.ReplayLSN < wantLSN {
			// Higher is legal only for a checksum-passing, LSN-contiguous
			// tail (a valid record — then the dump check above arbitrates);
			// lower means a committed write was dropped.
			t.Fatalf("replay stopped at LSN %d, want %d", info.ReplayLSN, wantLSN)
		}
	})
}
