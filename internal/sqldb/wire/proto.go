// Package wire exposes a sqldb.DB over TCP with a compact length-prefixed
// binary protocol, standing in for the MySQL client protocol of the paper's
// testbed. The Client plays the role of PHP's native driver and of the
// MM-MySQL type-4 JDBC driver; Pool provides the engine-side connection
// pooling that Tomcat and JOnAS configure in the original system.
//
// Protocol v2 adds a prepared-statement path alongside the v1 text query
// frame: PREPARE registers a statement under a client-assigned id on the
// connection's server session, EXECUTE-by-id runs it with bound arguments
// without re-sending (or re-parsing) the SQL text, and CLOSE-STMT retires
// the id. This package's client speaks only v2 for statements (Conn.Exec);
// the server still answers v1 clients that only ever send msgQuery — the
// frame layout and the text-query exchange are unchanged.
//
// Protocol v3 adds transaction control: BEGIN / COMMIT / ROLLBACK frames
// with empty payloads operating on the connection's server session. The
// client pipelines BEGIN with the transaction's first statement (one round
// trip opens the transaction and runs it), and the server rolls back any
// transaction still open when a connection drops — so a dying client can
// never publish half a transaction. v1/v2 clients remain wire-compatible,
// and the statements also parse as SQL text for clients that prefer the
// query frame.
//
// Protocol v4 adds PREPARE-TXN, phase one of two-phase commit for the
// sharded cluster: an empty-payload frame that brings the connection's open
// transaction to the prepared state (every statement applied, every lock
// held) and latches out further statements until COMMIT or ROLLBACK. The
// reply is msgTxnOK, like the other transaction-control frames. v3 and
// older clients never send it and remain fully compatible.
package wire

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/frame"
	"repro/internal/sqldb"
)

// Frame layout (internal/frame): 4-byte big-endian payload length, 1-byte
// type, payload.
//
// Requests:
//
//	msgQuery     query string, arg count, args      -> msgResult | msgError
//	msgPrepare   u32 stmt id, query string          -> msgPrepOK | msgError
//	msgExecStmt  u32 stmt id, arg count, args       -> msgResult | msgError
//	msgCloseStmt u32 stmt id                        -> msgPrepOK | msgError
//	msgBegin      (empty)                           -> msgTxnOK | msgError
//	msgCommit     (empty)                           -> msgTxnOK | msgError
//	msgRollback   (empty)                           -> msgTxnOK | msgError
//	msgPrepareTxn (empty)                           -> msgTxnOK | msgError
//
// Statement ids are assigned by the client and scoped to the connection, so
// a PREPARE and its first EXECUTE pipeline into a single round trip — and
// so does a BEGIN with its transaction's first statement.
const (
	msgQuery      = 0x01
	msgPrepare    = 0x02
	msgExecStmt   = 0x03
	msgCloseStmt  = 0x04
	msgBegin      = 0x05
	msgCommit     = 0x06
	msgRollback   = 0x07
	msgPrepareTxn = 0x08
	msgResult     = 0x81
	msgError      = 0x82
	msgPrepOK     = 0x83
	msgTxnOK      = 0x84

	// maxStmtsPerConn bounds one connection's prepared-statement table —
	// both benchmarks together need a few dozen; the cap only stops a
	// pathological client from pinning unlimited ASTs server-side.
	maxStmtsPerConn = 4096
)

// value tags on the wire.
const (
	tagNull   = 0
	tagInt    = 1
	tagFloat  = 2
	tagString = 3
)

// enc appends wire values to a payload; the field primitives are frame's.
type enc struct{ frame.Enc }

func (e *enc) value(v sqldb.Value) {
	switch v.Kind() {
	case sqldb.KindNull:
		e.Byte(tagNull)
	case sqldb.KindInt:
		e.Byte(tagInt)
		e.U64(uint64(v.AsInt()))
	case sqldb.KindFloat:
		e.Byte(tagFloat)
		e.U64(math.Float64bits(v.AsFloat()))
	default:
		e.Byte(tagString)
		e.Str(v.AsString())
	}
}

// encPool recycles encoder buffers across requests; the frame is written
// out before the encoder is returned, so buffers never escape.
var encPool = sync.Pool{New: func() any { return &enc{frame.Enc{B: make([]byte, 0, 1024)}} }}

// maxPooledEnc keeps the occasional huge result from pinning memory.
const maxPooledEnc = 1 << 20

func getEnc() *enc { return encPool.Get().(*enc) }

func putEnc(e *enc) {
	if cap(e.B) > maxPooledEnc {
		return
	}
	e.B = e.B[:0]
	encPool.Put(e)
}

// dec reads wire values off a payload cursor; the field primitives and the
// latched error are frame's.
type dec struct{ frame.Dec }

func newDec(p []byte) *dec { return &dec{frame.Dec{Proto: "wire", B: p}} }

func (d *dec) value() sqldb.Value {
	switch d.Byte() {
	case tagNull:
		return sqldb.Null()
	case tagInt:
		return sqldb.Int(int64(d.U64()))
	case tagFloat:
		return sqldb.Float(math.Float64frombits(d.U64()))
	case tagString:
		return sqldb.String(d.Str())
	default:
		d.Fail("unknown value tag")
		return sqldb.Null()
	}
}

// args decodes an argument vector (count-prefixed values).
func (d *dec) args() []sqldb.Value {
	n := int(d.U32())
	if n > 1<<16 {
		d.Fail("absurd arg count")
		return nil
	}
	if n == 0 {
		return nil
	}
	args := make([]sqldb.Value, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		args = append(args, d.value())
	}
	return args
}

// decodeQuery parses a text-query request payload (v1; the client sends
// none, the server still answers them).
func decodeQuery(p []byte) (string, []sqldb.Value, error) {
	d := newDec(p)
	q := d.Str()
	args := d.args()
	return q, args, d.Err
}

// encodePrepare appends a PREPARE payload.
func encodePrepare(e *enc, id uint32, query string) {
	e.U32(id)
	e.Str(query)
}

// decodePrepare parses a PREPARE payload.
func decodePrepare(p []byte) (uint32, string, error) {
	d := newDec(p)
	id := d.U32()
	q := d.Str()
	return id, q, d.Err
}

// encodeExecStmt appends an EXECUTE-by-id payload.
func encodeExecStmt(e *enc, id uint32, args []sqldb.Value) {
	e.U32(id)
	e.U32(uint32(len(args)))
	for _, a := range args {
		e.value(a)
	}
}

// decodeExecStmt parses an EXECUTE-by-id payload.
func decodeExecStmt(p []byte) (uint32, []sqldb.Value, error) {
	d := newDec(p)
	id := d.U32()
	args := d.args()
	return id, args, d.Err
}

// encodeCloseStmt appends a CLOSE-STMT payload.
func encodeCloseStmt(e *enc, id uint32) { e.U32(id) }

// decodeCloseStmt parses a CLOSE-STMT payload.
func decodeCloseStmt(p []byte) (uint32, error) {
	d := newDec(p)
	id := d.U32()
	return id, d.Err
}

// encodeResult appends a result payload.
func encodeResult(e *enc, r *sqldb.Result) {
	e.U64(uint64(r.RowsAffected))
	e.U64(uint64(r.LastInsertID))
	e.U32(uint32(len(r.Columns)))
	for _, c := range r.Columns {
		e.Str(c)
	}
	e.U32(uint32(len(r.Rows)))
	for _, row := range r.Rows {
		e.U32(uint32(len(row)))
		for _, v := range row {
			e.value(v)
		}
	}
}

// colCache remembers the previous response's column-name slice. A pooled
// client connection replays the same handful of statements, so almost every
// response's header is byte-identical to one seen before: reusing the prior
// []string (names compared against the frame bytes, no conversion) drops
// both the slice and the per-name string allocations from the hot path.
type colCache struct{ cols []string }

// decodeResult parses a result payload. Row values are carved from slab
// allocations rather than one slice per row — list pages decode 50 rows
// per response, and per-row allocs dominated the client-side profile.
// cc, when non-nil, caches column headers across responses (see colCache).
func decodeResult(p []byte, cc *colCache) (*sqldb.Result, error) {
	d := newDec(p)
	r := &sqldb.Result{
		RowsAffected: int64(d.U64()),
		LastInsertID: int64(d.U64()),
	}
	nc := int(d.U32())
	if nc > 1<<16 {
		return nil, fmt.Errorf("wire: absurd column count %d", nc)
	}
	switch {
	case nc == 0 || d.Err != nil:
	case cc != nil && len(cc.cols) == nc:
		// Optimistically compare against the cached header; on the first
		// mismatch, materialize a fresh slice from the matched prefix.
		cols := cc.cols
		for i := 0; i < nc && d.Err == nil; i++ {
			b := d.StrBytes()
			if string(b) != cols[i] {
				fresh := make([]string, i, nc)
				copy(fresh, cols[:i])
				fresh = append(fresh, string(b))
				for j := i + 1; j < nc && d.Err == nil; j++ {
					fresh = append(fresh, d.Str())
				}
				cols = fresh
				break
			}
		}
		r.Columns = cols
		cc.cols = cols
	default:
		r.Columns = make([]string, 0, min(nc, len(p)/4))
		for i := 0; i < nc && d.Err == nil; i++ {
			r.Columns = append(r.Columns, d.Str())
		}
		if cc != nil {
			cc.cols = r.Columns
		}
	}
	nr := int(d.U32())
	if nr > frame.MaxLen {
		return nil, fmt.Errorf("wire: absurd row count %d", nr)
	}
	if nr > 0 && d.Err == nil {
		// Each encoded row is at least 4 bytes (its width prefix), which
		// bounds preallocation against a lying header.
		r.Rows = make([]sqldb.Row, 0, min(nr, len(p)/4))
	}
	var slab []sqldb.Value
	for i := 0; i < nr && d.Err == nil; i++ {
		w := int(d.U32())
		if w > 1<<16 {
			return nil, fmt.Errorf("wire: absurd row width %d", w)
		}
		if w > len(slab) {
			// Size the slab from what is actually left to decode: the
			// remaining row count, capped both by a constant (bounds slab
			// size for huge results) and by the remaining payload bytes
			// (every encoded value is at least one byte, so a lying row
			// header cannot force a giant allocation). A single-row
			// point-lookup response allocates exactly one row's worth.
			n := (nr - i) * w
			if max := 16 * w; n > max {
				n = max
			}
			if left := len(d.B) - d.Off; n > left {
				n = left
			}
			if n < w {
				n = w
			}
			slab = make([]sqldb.Value, n)
		}
		row := sqldb.Row(slab[:0:w])
		slab = slab[w:]
		for j := 0; j < w && d.Err == nil; j++ {
			row = append(row, d.value())
		}
		r.Rows = append(r.Rows, row)
	}
	return r, d.Err
}
