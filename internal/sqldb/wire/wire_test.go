package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/frame"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
)

func startServer(t *testing.T) (*sqldb.DB, string) {
	t.Helper()
	db, _, addr := serveKV(t)
	return db, addr
}

// serveKV serves a fresh database holding a two-row kv table.
func serveKV(t *testing.T) (*sqldb.DB, *Server, string) {
	t.Helper()
	db := sqldb.New()
	s := db.NewSession()
	defer s.Close()
	for _, q := range []string{
		"CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(50))",
		"INSERT INTO kv (k, v) VALUES (1, 'one'), (2, 'two')",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv, addr.String()
}

// writeFrame sends one frame on w and flushes it.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	bw := bufio.NewWriter(w)
	if err := frame.Write(bw, typ, payload); err != nil {
		return err
	}
	return bw.Flush()
}

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello world")
	if err := writeFrame(&buf, msgQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := new(frame.Buf).Read(&buf)
	if err != nil || typ != msgQuery || string(got) != "hello world" {
		t.Fatalf("roundtrip: %v %x %q", err, typ, got)
	}
}

// encodeQuery appends a v1 text-query request payload: the frame the
// server still answers and no client in the repository sends.
func encodeQuery(e *enc, query string, args []sqldb.Value) {
	e.Str(query)
	e.U32(uint32(len(args)))
	for _, a := range args {
		e.value(a)
	}
}

func TestQueryEncodingRoundtrip(t *testing.T) {
	args := []sqldb.Value{sqldb.Int(-7), sqldb.Float(2.5), sqldb.String("x"), sqldb.Null()}
	var e enc
	encodeQuery(&e, "SELECT 1", args)
	q, got, err := decodeQuery(e.B)
	if err != nil || q != "SELECT 1" || len(got) != 4 {
		t.Fatalf("roundtrip: %v %q %v", err, q, got)
	}
	if got[0].AsInt() != -7 || got[1].AsFloat() != 2.5 || got[2].AsString() != "x" || !got[3].IsNull() {
		t.Fatalf("args: %v", got)
	}
}

// TestValueEncodingEdgeCases is the wire half of sqldb's TestValueModel:
// the values a packed Value is most likely to get wrong keep the bytes the
// protocol always gave them (tag, then the payload big-endian or the string
// length-prefixed) and decode to the same kind and the same bits.
func TestValueEncodingEdgeCases(t *testing.T) {
	buf := strings.Repeat("0123456789", 8)
	be := func(tag byte, n uint64) []byte { return binary.BigEndian.AppendUint64([]byte{tag}, n) }
	str := func(s string) []byte {
		return append(binary.BigEndian.AppendUint32([]byte{tagString}, uint32(len(s))), s...)
	}
	cases := []struct {
		v    sqldb.Value
		want []byte
	}{
		{sqldb.Null(), []byte{tagNull}},
		{sqldb.Value{}, []byte{tagNull}},
		{sqldb.Int(0), be(tagInt, 0)},
		{sqldb.Int(math.MinInt64), be(tagInt, 1<<63)},
		{sqldb.Int(math.MaxInt64), be(tagInt, 1<<63-1)},
		{sqldb.Int(1<<53 + 1), be(tagInt, 1<<53+1)},
		{sqldb.Float(math.Copysign(0, -1)), be(tagFloat, 1<<63)},
		{sqldb.Float(math.Inf(-1)), be(tagFloat, 0xfff0000000000000)},
		{sqldb.Float(math.Float64frombits(0x7ff0000000000001)), be(tagFloat, 0x7ff0000000000001)},
		{sqldb.Float(math.Float64frombits(0xffffffffffffffff)), be(tagFloat, 0xffffffffffffffff)},
		{sqldb.String(""), str("")},
		{sqldb.String("\x00"), str("\x00")},
		{sqldb.String(buf[13:29]), str("3456789012345678")},
		{sqldb.String(buf[40:40]), str("")},
	}
	for _, c := range cases {
		var e enc
		e.value(c.v)
		if !bytes.Equal(e.B, c.want) {
			t.Errorf("%v encodes as %x, want %x", c.v, e.B, c.want)
			continue
		}
		d := newDec(e.B)
		got := d.value()
		if d.Err != nil || d.Off != len(e.B) || got.Kind() != c.v.Kind() || got.AsInt() != c.v.AsInt() ||
			math.Float64bits(got.AsFloat()) != math.Float64bits(c.v.AsFloat()) || got.AsString() != c.v.AsString() {
			t.Errorf("%v decodes as %v (err %v, %d of %d bytes read)", c.v, got, d.Err, d.Off, len(e.B))
		}
	}
}

func TestPreparedFrameRoundtrips(t *testing.T) {
	var e enc
	encodePrepare(&e, 42, "SELECT ?")
	id, q, err := decodePrepare(e.B)
	if err != nil || id != 42 || q != "SELECT ?" {
		t.Fatalf("prepare roundtrip: %v %d %q", err, id, q)
	}
	e = enc{}
	encodeExecStmt(&e, 7, []sqldb.Value{sqldb.Int(3), sqldb.String("y")})
	id, args, err := decodeExecStmt(e.B)
	if err != nil || id != 7 || len(args) != 2 || args[0].AsInt() != 3 || args[1].AsString() != "y" {
		t.Fatalf("exec roundtrip: %v %d %v", err, id, args)
	}
	e = enc{}
	encodeCloseStmt(&e, 9)
	id, err = decodeCloseStmt(e.B)
	if err != nil || id != 9 {
		t.Fatalf("close roundtrip: %v %d", err, id)
	}
}

func TestResultEncodingRoundtrip(t *testing.T) {
	in := &sqldb.Result{
		Columns:      []string{"a", "b"},
		Rows:         []sqldb.Row{{sqldb.Int(1), sqldb.String("x")}, {sqldb.Null(), sqldb.Float(3.25)}},
		RowsAffected: 5,
		LastInsertID: 42,
	}
	var e enc
	encodeResult(&e, in)
	out, err := decodeResult(e.B, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowsAffected != 5 || out.LastInsertID != 42 || len(out.Rows) != 2 {
		t.Fatalf("out: %+v", out)
	}
	if !out.Rows[0][0].IsNull() && out.Rows[0][0].AsInt() != 1 {
		t.Fatalf("row: %+v", out.Rows[0])
	}
	if out.Rows[1][1].AsFloat() != 3.25 {
		t.Fatalf("row: %+v", out.Rows[1])
	}
}

// Property: result encoding roundtrips for arbitrary scalar tables.
func TestResultRoundtripProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		in := &sqldb.Result{Columns: []string{"i", "s"}}
		n := len(ints)
		if len(strs) < n {
			n = len(strs)
		}
		for i := 0; i < n; i++ {
			in.Rows = append(in.Rows, sqldb.Row{sqldb.Int(ints[i]), sqldb.String(strs[i])})
		}
		var e enc
		encodeResult(&e, in)
		out, err := decodeResult(e.B, nil)
		if err != nil || len(out.Rows) != len(in.Rows) {
			return false
		}
		for i := range in.Rows {
			if out.Rows[i][0].AsInt() != in.Rows[i][0].AsInt() ||
				out.Rows[i][1].AsString() != in.Rows[i][1].AsString() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := decodeResult([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("truncated result must error")
	}
	if _, _, err := decodeQuery([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage query must error")
	}
	// An arg vector's count is capped at 65536 before anything is decoded.
	for n, ok := range map[uint32]bool{1 << 16: true, 1<<16 + 1: false} {
		var e enc
		e.Str("SELECT v FROM kv WHERE k = ?")
		e.U32(n)
		for i := uint32(0); i < n; i++ {
			e.value(sqldb.Null())
		}
		if _, _, err := decodeQuery(e.B); (err == nil) != ok {
			t.Fatalf("arg count %d: err = %v, want accepted %v", n, err, ok)
		}
	}
}

// TestUnknownTagHangsUp: a request frame with an unknown type tag is never
// answered; the server drops the connection.
func TestUnknownTagHangsUp(t *testing.T) {
	_, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrame(nc, 0x7f, nil); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := new(frame.Buf).Read(nc); err == nil {
		t.Fatalf("unknown tag answered with frame 0x%x, want the connection closed", typ)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("unknown tag neither answered nor hung up")
	}
}

func TestClientServerQuery(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec("SELECT v FROM kv WHERE k = ?", sqldb.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "two" {
		t.Fatalf("rows: %+v", res.Rows)
	}
}

func TestClientServerWrite(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec("INSERT INTO kv (k, v) VALUES (3, 'three')")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("insert: %v %+v", err, res)
	}
	res, err = c.Exec("UPDATE kv SET v = 'THREE' WHERE k = 3")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("update: %v %+v", err, res)
	}
}

func TestServerErrorKeepsConnection(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT nope FROM kv")
	if err == nil || !IsServerError(err) {
		t.Fatalf("want server error, got %v", err)
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error should mention column: %v", err)
	}
	// Connection must still work.
	if _, err := c.Exec("SELECT k FROM kv"); err != nil {
		t.Fatalf("connection unusable after server error: %v", err)
	}
}

// TestLockTablesPerConnection: LOCK TABLES / UNLOCK TABLES are not in the
// dialect. Over the wire that is an ordinary server error: the connection
// stays usable and its open transaction is neither committed nor aborted.
func TestLockTablesPerConnection(t *testing.T) {
	db, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	other := db.NewSession()
	defer other.Close()
	count := func(ex sqldb.Execer) int64 {
		t.Helper()
		res, err := ex.Exec("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].AsInt()
	}
	before := count(other)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES (9, 'nine')"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"LOCK TABLES kv WRITE", "LOCK TABLES kv READ", "UNLOCK TABLES"} {
		if _, err := c.Exec(q); !IsServerError(err) || !strings.Contains(err.Error(), "unsupported statement") {
			t.Fatalf("Exec(%q) = %v, want a server-side parse error", q, err)
		}
		if got := count(other); got != before {
			t.Fatalf("%q committed the open transaction: %d rows visible, want %d", q, got, before)
		}
		if got := count(c); got != before+1 {
			t.Fatalf("%q aborted the open transaction: it sees %d rows, want %d", q, got, before+1)
		}
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := count(c); got != before {
		t.Fatalf("rows after ROLLBACK = %d, want %d", got, before)
	}
}

// TestDisconnectReleasesLocks: a transaction's table locks last until it
// ends — a second connection's write waits behind them — and a connection
// that drops mid-transaction ends it: rolled back, locks released.
func TestDisconnectReleasesLocks(t *testing.T) {
	_, srv, addr := serveKV(t)
	c1, _ := Dial(addr)
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("UPDATE kv SET v = 'c1' WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	c2, _ := Dial(addr)
	defer c2.Close()
	done := make(chan error, 1)
	go func() {
		err := c2.Begin()
		if err == nil {
			_, err = c2.Exec("UPDATE kv SET v = 'c2' WHERE k = 1")
		}
		if err == nil {
			err = c2.Commit()
		}
		done <- err
	}()
	// c2's BEGIN rides with its UPDATE, so once the server has counted both
	// (after c1's two) the UPDATE is at (or about to reach) c1's write lock.
	for deadline := time.Now().Add(5 * time.Second); srv.Telemetry().Queries < 4; {
		if time.Now().After(deadline) {
			t.Fatal("second transaction never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := c1.Exec("SELECT v FROM kv WHERE k = 1")
	if err != nil || res.Rows[0][0].AsString() != "c1" {
		t.Fatalf("c1 re-reads %v, %v: want its own uncommitted 'c1'", res, err)
	}
	select {
	case err := <-done:
		t.Fatalf("second writer finished (%v) while the first transaction was open", err)
	default:
	}
	c1.Close() // server must roll back and release the session's locks
	if err := <-done; err != nil {
		t.Fatalf("write after disconnect: %v", err)
	}
	if res, err = c2.Exec("SELECT v FROM kv WHERE k = 1"); err != nil || res.Rows[0][0].AsString() != "c2" {
		t.Fatalf("after disconnect: %v, %v: want 'c2' over the rolled-back 'c1'", res, err)
	}
}

func TestPoolConcurrentUse(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 4)
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Exec("INSERT INTO kv (k, v) VALUES (?, ?)",
				sqldb.Int(int64(100+i)), sqldb.String("v")); err != nil {
				t.Errorf("pool exec: %v", err)
			}
		}()
	}
	wg.Wait()
	res, err := p.Exec("SELECT COUNT(*) FROM kv WHERE v = 'v'")
	if err != nil || res.Rows[0][0].AsInt() != 16 {
		t.Fatalf("count: %v %+v", err, res)
	}
}

func TestPoolBoundsConnections(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 2)
	defer p.Close()
	a, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	acquired := make(chan *Conn)
	go func() {
		c, err := p.Get() // must block until a Put
		if err != nil {
			t.Errorf("get: %v", err)
		}
		acquired <- c
	}()
	select {
	case <-acquired:
		t.Fatal("third Get should have blocked on a size-2 pool")
	default:
	}
	go func() { <-release; p.Put(a, false) }()
	close(release)
	c := <-acquired
	p.Put(b, false)
	p.Put(c, false)
}

func TestConnExecCached(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const q = "SELECT v FROM kv WHERE k = ?"
	for i := 0; i < 3; i++ {
		res, err := c.Exec(q, sqldb.Int(1))
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "one" {
			t.Fatalf("exec %d rows: %+v", i, res.Rows)
		}
	}
	if len(c.stmts) != 1 {
		t.Fatalf("want one cached statement, have %d", len(c.stmts))
	}
	// Evicting frames a CLOSE-STMT that rides with the next flush; the id is
	// then gone on both ends, and the next Exec must silently re-prepare.
	if err := c.evict(); err != nil {
		t.Fatalf("evict: %v", err)
	}
	res, err := c.Exec(q, sqldb.Int(2))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "two" {
		t.Fatalf("exec after eviction: %v %+v", err, res)
	}
	if len(c.stmts) != 1 || c.pending != 0 {
		t.Fatalf("after eviction: %d cached statements, %d pending replies", len(c.stmts), c.pending)
	}
}

// TestConnExecCachedForwards pins the deprecated ExecCached spelling: it is
// Exec, over the same statement table.
func TestConnExecCachedForwards(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const q = "SELECT v FROM kv WHERE k = ?"
	if _, err := c.Exec(q, sqldb.Int(1)); err != nil {
		t.Fatal(err)
	}
	res, err := c.ExecCached(q, sqldb.Int(2))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "two" {
		t.Fatalf("ExecCached: %v %+v", err, res)
	}
	if len(c.stmts) != 1 {
		t.Fatalf("ExecCached prepared its own copy: %d statements", len(c.stmts))
	}
}

// TestConnStatementTableBounded: a connection that runs more distinct texts
// than the server's per-connection cap evicts as it goes — every statement
// answers, the client's table never outgrows the cap, and a statement used
// throughout still answers at the end.
func TestConnStatementTableBounded(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const hot = "SELECT v FROM kv WHERE k = ?"
	const n = maxStmtsPerConn + 64
	b := sqldb.NewInsertBatch(c, "kv", "k", "v")
	for i := 0; i < n; i++ {
		if i != 1 && i != 2 { // the fixture's rows
			if err := b.Add(sqldb.Int(int64(i)), sqldb.String("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res, err := c.Exec(fmt.Sprintf("SELECT k FROM kv WHERE k = %d", i))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsInt() != int64(i) {
			t.Fatalf("statement %d: %v %+v", i, err, res)
		}
		if len(c.stmts) > maxStmtsPerConn {
			t.Fatalf("statement %d: %d texts in the table, cap %d", i, len(c.stmts), maxStmtsPerConn)
		}
		if i%512 == 0 {
			if res, err := c.Exec(hot, sqldb.Int(2)); err != nil || res.Rows[0][0].AsString() != "two" {
				t.Fatalf("hot statement at %d: %v %+v", i, err, res)
			}
		}
	}
	if res, err := c.Exec(hot, sqldb.Int(1)); err != nil || res.Rows[0][0].AsString() != "one" {
		t.Fatalf("hot statement after the churn: %v %+v", err, res)
	}
}

func TestExecPreparedUnknownID(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var e enc
	encodeExecStmt(&e, 999, nil)
	if err := frame.Write(c.tc.BW, msgExecStmt, e.B); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	_, err = c.readReply()
	if err == nil || !IsServerError(err) || !strings.Contains(err.Error(), "unknown statement id") {
		t.Fatalf("want unknown-statement server error, got %v", err)
	}
	// The connection must remain usable.
	if _, err := c.Exec("SELECT k FROM kv"); err != nil {
		t.Fatalf("connection unusable: %v", err)
	}
}

func TestExecCachedParseErrorKeepsConnection(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELEKT broken")
	if err == nil || !IsServerError(err) {
		t.Fatalf("want server error from pipelined PREPARE, got %v", err)
	}
	if len(c.stmts) != 0 {
		t.Fatalf("failed prepare must not be cached: %v", c.stmts)
	}
	// The pipelined EXECUTE's error response must have been drained: the
	// stream stays in lockstep.
	res, err := c.Exec("SELECT v FROM kv WHERE k = ?", sqldb.Int(2))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "two" {
		t.Fatalf("connection out of sync after prepare failure: %v %+v", err, res)
	}
}

// TestTextProtocolBackwardCompat drives the server with raw v1 frames — the
// exact bytes a pre-v2 client emits — proving old clients still work
// against the new server.
func TestTextProtocolBackwardCompat(t *testing.T) {
	_, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var e enc
	e.Str("SELECT v FROM kv WHERE k = ?")
	e.U32(1)
	e.value(sqldb.Int(1))
	if err := writeFrame(nc, msgQuery, e.B); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := new(frame.Buf).Read(nc)
	if err != nil || typ != msgResult {
		t.Fatalf("v1 exchange: %v type=0x%x", err, typ)
	}
	res, err := decodeResult(payload, nil)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "one" {
		t.Fatalf("v1 result: %v %+v", err, res)
	}
}

func TestPoolStmtExec(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 2)
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				res, err := p.Exec("SELECT v FROM kv WHERE k = ?", sqldb.Int(2))
				if err != nil {
					t.Errorf("stmt exec: %v", err)
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "two" {
					t.Errorf("stmt rows: %+v", res.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStmtReconnectReprepares is the regression test for the stale-
// connection retry: after every pooled connection dies with the server,
// Pool.Exec must re-establish statement ids on the replacement connection
// instead of failing with "unknown statement id".
func TestStmtReconnectReprepares(t *testing.T) {
	db := sqldb.New()
	s := db.NewSession()
	for _, q := range []string{
		"CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(50))",
		"INSERT INTO kv (k, v) VALUES (1, 'one')",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	srv := NewServer(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(addr.String(), 1)
	defer p.Close()
	const q = "SELECT v FROM kv WHERE k = ?"
	if _, err := p.Exec(q, sqldb.Int(1)); err != nil {
		t.Fatalf("first exec: %v", err)
	}
	// Kill the server (dropping the connection holding the statement id)
	// and restart it on the same port: the pooled connection is now stale.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(db, nil)
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })
	res, err := p.Exec(q, sqldb.Int(1))
	if err != nil {
		t.Fatalf("exec after reconnect: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "one" {
		t.Fatalf("rows after reconnect: %+v", res.Rows)
	}
	if st := p.Stats(); st.Retries != 1 || st.Discards != 1 {
		t.Fatalf("want 1 retry / 1 discard, got %+v", st)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	db := sqldb.New()
	srv := NewServer(db, nil)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsInFlight: Shutdown must hang up idle connections
// immediately, but let a connection that is mid-statement finish and
// receive its answer — the SIGTERM drain dbserver and the cluster rely on.
func TestShutdownDrainsInFlight(t *testing.T) {
	db := sqldb.New()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(50))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kv (k, v) VALUES (1, 'one')"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	srv := NewServer(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Connection A holds the table write-locked by an open transaction,
	// then goes idle.
	a, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO kv (k, v) VALUES (2, 'two')"); err != nil {
		t.Fatal(err)
	}

	// Connection B's SELECT is the table's first read, so it builds the
	// snapshot under the read lock and blocks on A's write lock: it is in
	// flight when the drain starts.
	type reply struct {
		res *sqldb.Result
		err error
	}
	b, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan reply, 1)
	go func() {
		res, err := b.Exec("SELECT v FROM kv WHERE k = 1")
		got <- reply{res, err}
	}()
	time.Sleep(100 * time.Millisecond) // let B's request reach the server

	// Drain: A is idle, so it is hung up at once — rolling back, which
	// releases its locks — and B's in-flight SELECT completes and is
	// answered.
	srv.Shutdown(2 * time.Second)
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight statement must be answered through the drain: %v", r.err)
	}
	if len(r.res.Rows) != 1 || r.res.Rows[0][0].AsString() != "one" {
		t.Fatalf("drained reply rows: %+v", r.res.Rows)
	}
	// Both connections are gone afterwards.
	if err := a.Commit(); err == nil {
		t.Fatal("idle connection must be closed by the drain")
	}
	if _, err := b.Exec("SELECT v FROM kv WHERE k = 1"); err == nil {
		t.Fatal("drained connection must be closed after its in-flight reply")
	}
}

// TestTxnOverWire drives the v3 frames end to end: pipelined BEGIN, writes,
// COMMIT persisting and ROLLBACK restoring, per connection.
func TestTxnOverWire(t *testing.T) {
	db, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	// The BEGIN reply is drained transparently before this statement's own.
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", sqldb.Int(3), sqldb.String("three")); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE kv SET v = ? WHERE k = ?", sqldb.String("mutated"), sqldb.Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("DELETE FROM kv WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}

	sess := db.NewSession()
	defer sess.Close()
	res, err := sess.Exec("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	want := `[[1 "one"] [2 "two"] [3 "three"]]`
	if got := valuesString(res.Rows); got != want {
		t.Fatalf("kv after commit+rollback: %s, want %s", got, want)
	}
	if st := db.Telemetry(); st.Commits != 1 || st.Aborts != 1 {
		t.Fatalf("%d commits, %d aborts; want 1 of each", st.Commits, st.Aborts)
	}
}

// TestConnDropRollsBackTxn: a connection dying mid-transaction must leave
// no trace — the server session's auto-ROLLBACK — and so must one dying
// with its transaction prepared (PREPARE-TXN): the engine keeps no durable
// prepare log, so a prepared transaction dies with its connection. Either
// way the row is gone and its lock is free: another session inserts the
// same key.
func TestConnDropRollsBackTxn(t *testing.T) {
	for _, prepared := range []bool{false, true} {
		t.Run(fmt.Sprintf("prepared=%v", prepared), func(t *testing.T) {
			db, addr := startServer(t)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Exec("INSERT INTO kv (k, v) VALUES (9, 'orphan')"); err != nil {
				t.Fatal(err)
			}
			if prepared {
				if err := c.PrepareTxn(); err != nil {
					t.Fatal(err)
				}
			}
			c.Close() // dies without COMMIT

			sess := db.NewSession()
			defer sess.Close()
			deadline := time.Now().Add(2 * time.Second)
			for {
				_, err := sess.Exec("INSERT INTO kv (k, v) VALUES (9, 'mine')")
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("orphaned transaction not rolled back after connection drop: %v", err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			res, err := sess.Exec("SELECT v FROM kv WHERE k = 9")
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "mine" {
				t.Fatalf("k = 9: %v %v, want the one row 'mine'", err, res)
			}
		})
	}
}

// TestShutdownAbortsInFlightTxn is the drain regression test: Shutdown must
// abort (roll back) transactions still open on draining connections, not
// just answer in-flight statements.
func TestShutdownAbortsInFlightTxn(t *testing.T) {
	db := sqldb.New()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(50))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kv (k, v) VALUES (1, 'one')"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	srv := NewServer(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The connection opens a transaction, mutates, and goes idle without
	// committing — the state a client pause leaves mid-checkout.
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE kv SET v = 'dirty' WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES (2, 'uncommitted')"); err != nil {
		t.Fatal(err)
	}

	srv.Shutdown(2 * time.Second)
	sess := db.NewSession()
	defer sess.Close()
	res, err := sess.Exec("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if got := valuesString(res.Rows); got != `[[1 "one"]]` {
		t.Fatalf("shutdown kept uncommitted transaction state: %s", got)
	}
	if n := db.Telemetry().Aborts; n != 1 {
		t.Fatalf("rollbacks %d, want 1", n)
	}
}

func valuesString(rows []sqldb.Row) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, r := range rows {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		for j, v := range r {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.String())
		}
		b.WriteByte(']')
	}
	b.WriteByte(']')
	return b.String()
}

// TestPrepareTxnFrame: the v4 PREPARE-TXN frame must bring the open
// transaction to the prepared state (further statements rejected) and
// COMMIT must then publish it; outside a transaction it is a server error.
func TestPrepareTxnFrame(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.PrepareTxn(); err == nil || !IsServerError(err) {
		t.Fatalf("PREPARE-TXN outside a transaction: err = %v, want server error", err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES (3, 'three')"); err != nil {
		t.Fatal(err)
	}
	if err := c.PrepareTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES (4, 'four')"); err == nil ||
		!strings.Contains(err.Error(), "prepared") {
		t.Fatalf("statement on a prepared transaction: err = %v", err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT v FROM kv WHERE k = 3")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "three" {
		t.Fatalf("prepared transaction did not commit: %v %v", err, res)
	}
}

// TestPoolRetriesReadsNotWrites: after the server restarts, the pool's idle
// connection is stale. A write on it fails and is not retried — the server
// may have applied it before the connection died — while a read retries
// once on a freshly dialed connection and answers.
func TestPoolRetriesReadsNotWrites(t *testing.T) {
	db := sqldb.New()
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(50))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kv (k, v) VALUES (1, 'one')"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, nil)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := bound.String()
	restart := func() {
		t.Helper()
		srv.Close()
		srv = NewServer(db, nil)
		if _, err := srv.Listen(addr); err != nil {
			t.Fatalf("rebind %s: %v", addr, err)
		}
	}
	defer func() { srv.Close() }()
	p := NewPool(addr, 1)
	defer p.Close()
	const q = "SELECT v FROM kv WHERE k = ?"
	if _, err := p.Exec(q, sqldb.Int(1)); err != nil {
		t.Fatal(err)
	}
	restart()
	if _, err := p.Exec("INSERT INTO kv (k, v) VALUES (3, 'three')"); err == nil || IsServerError(err) {
		t.Fatalf("write on a stale connection: %v, want a transport error", err)
	}
	if res, err := s.Exec("SELECT COUNT(*) FROM kv WHERE k = 3"); err != nil || res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("the failed write applied: %v %v", err, res)
	}
	if _, err := p.Exec(q, sqldb.Int(1)); err != nil {
		t.Fatal(err)
	}
	restart()
	res, err := p.Exec(q, sqldb.Int(1))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "one" {
		t.Fatalf("read on a stale connection: %v %v, want it retried", err, res)
	}
}

// TestDBStatsCells: the database tier's counters are filled from three cell
// structs — this server's, the engine's and its log's — and every DBStats
// counter has exactly one same-named cell among them, while every cell
// names a field of the tier row (telemetry.Load's rule).
func TestDBStatsCells(t *testing.T) {
	cells := func(owner any) reflect.Type {
		f, ok := reflect.TypeOf(owner).Elem().FieldByName("ctr")
		if !ok {
			t.Fatalf("%T has no ctr cells", owner)
		}
		return f.Type
	}
	err := telemetry.CheckCells(reflect.TypeOf(telemetry.Tier{}), reflect.TypeOf(telemetry.DBStats{}),
		cells((*Server)(nil)), cells((*sqldb.DB)(nil)), cells((*sqldb.WAL)(nil)))
	if err != nil {
		t.Fatal(err)
	}
}
