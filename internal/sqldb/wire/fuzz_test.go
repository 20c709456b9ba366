package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/frame"
	"repro/internal/sqldb"
)

// FuzzFrameRoundTrip feeds arbitrary bytes through the framing layer and
// every payload decoder, across v1 (text query), v2 (prepared statements)
// and v3 (transaction control) frame types: any input must either decode
// cleanly or return an error — never panic, never over-read. Inputs that do
// decode are re-encoded and decoded again, and must survive the round trip
// unchanged.
func FuzzFrameRoundTrip(f *testing.F) {
	// Seed with one well-formed frame of each request type plus a result.
	seed := func(typ byte, build func(e *enc)) {
		e := &enc{}
		build(e)
		var buf bytes.Buffer
		if err := frame.Write(&buf, typ, e.B); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	args := []sqldb.Value{sqldb.Int(42), sqldb.String("x"), sqldb.Null(), sqldb.Float(1.5)}
	seed(msgQuery, func(e *enc) { encodeQuery(e, "SELECT * FROM kv WHERE k = ?", args) })
	seed(msgPrepare, func(e *enc) { encodePrepare(e, 7, "INSERT INTO kv (k, v) VALUES (?, ?)") })
	seed(msgExecStmt, func(e *enc) { encodeExecStmt(e, 7, args) })
	seed(msgCloseStmt, func(e *enc) { encodeCloseStmt(e, 7) })
	seed(msgBegin, func(*enc) {})
	seed(msgCommit, func(*enc) {})
	seed(msgRollback, func(*enc) {})
	seed(msgResult, func(e *enc) {
		encodeResult(e, &sqldb.Result{
			Columns:      []string{"k", "v"},
			Rows:         []sqldb.Row{{sqldb.Int(1), sqldb.String("one")}},
			RowsAffected: 1, LastInsertID: 3,
		})
	})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fb frame.Buf
		typ, payload, err := fb.Read(bytes.NewReader(data))
		if err != nil {
			return // truncated or oversized frame: a clean error is the contract
		}
		switch typ {
		case msgQuery:
			q, args, err := decodeQuery(payload)
			if err != nil {
				return
			}
			e := &enc{}
			encodeQuery(e, q, args)
			q2, args2, err := decodeQuery(e.B)
			if err != nil || q2 != q || len(args2) != len(args) {
				t.Fatalf("query round trip: %v (%q->%q, %d->%d args)", err, q, q2, len(args), len(args2))
			}
		case msgPrepare:
			id, q, err := decodePrepare(payload)
			if err != nil {
				return
			}
			e := &enc{}
			encodePrepare(e, id, q)
			id2, q2, err := decodePrepare(e.B)
			if err != nil || id2 != id || q2 != q {
				t.Fatalf("prepare round trip: %v", err)
			}
		case msgExecStmt:
			id, args, err := decodeExecStmt(payload)
			if err != nil {
				return
			}
			e := &enc{}
			encodeExecStmt(e, id, args)
			id2, args2, err := decodeExecStmt(e.B)
			if err != nil || id2 != id || len(args2) != len(args) {
				t.Fatalf("exec-stmt round trip: %v", err)
			}
		case msgCloseStmt:
			id, err := decodeCloseStmt(payload)
			if err != nil {
				return
			}
			e := &enc{}
			encodeCloseStmt(e, id)
			if id2, err := decodeCloseStmt(e.B); err != nil || id2 != id {
				t.Fatalf("close-stmt round trip: %v", err)
			}
		case msgBegin, msgCommit, msgRollback:
			// Transaction control frames carry no payload to decode; the
			// server ignores whatever rode along. Nothing to round-trip.
		case msgResult:
			r, err := decodeResult(payload, nil)
			if err != nil {
				return
			}
			e := &enc{}
			encodeResult(e, r)
			r2, err := decodeResult(e.B, nil)
			if err != nil {
				t.Fatalf("result re-decode: %v", err)
			}
			if len(r2.Rows) != len(r.Rows) || len(r2.Columns) != len(r.Columns) ||
				r2.RowsAffected != r.RowsAffected || r2.LastInsertID != r.LastInsertID {
				t.Fatalf("result round trip changed shape: %+v vs %+v", r, r2)
			}
		}
		// Whatever the payload was, a second frame read past it must not
		// panic either (the reader sees the remaining bytes).
		rest := bytes.NewReader(data)
		if _, err := io.CopyN(io.Discard, rest, int64(5+len(payload))); err == nil {
			var fb2 frame.Buf
			_, _, _ = fb2.Read(rest)
		}
	})
}
