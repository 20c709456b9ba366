package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestCodecRoundTripAndLimits(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := Write(w, 7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := Write(w, 8, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	typ, first, err := new(Buf).Read(&buf)
	if err != nil || typ != 7 || string(first) != "first" {
		t.Fatalf("Read = %d %q %v", typ, first, err)
	}
	typ, p, err := new(Buf).Read(&buf)
	if err != nil || typ != 8 || len(p) != 0 {
		t.Fatalf("empty frame: %d %q %v", typ, p, err)
	}
	// A payload survives later reads through another Buf.
	if string(first) != "first" {
		t.Fatalf("payload overwritten: %q", first)
	}
	if err := Write(w, 1, make([]byte, MaxLen+1)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized write: %v", err)
	}
	if _, _, err := new(Buf).Read(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 1})); err == nil || !strings.Contains(err.Error(), "oversized frame") {
		t.Fatalf("oversized header: %v", err)
	}
}

// TestCloseWaitsForServe: Close drops live connections and returns only
// after every serve call has; a closed listener refuses to Listen again.
func TestCloseWaitsForServe(t *testing.T) {
	var serving, done atomic.Int32
	l := NewListener("test", nil, func(_ net.Conn, br *bufio.Reader, bw *bufio.Writer) {
		serving.Add(1)
		br.ReadByte() // blocks until Close drops the connection
		done.Add(1)
	})
	addr, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	for serving.Load() < 3 {
		runtime.Gosched()
	}
	l.Close()
	if done.Load() != 3 {
		t.Fatalf("Close returned with %d of 3 serve calls finished", done.Load())
	}
	if _, err := l.Listen("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "test: listener closed") {
		t.Fatalf("Listen after Close: %v", err)
	}
}

// TestBufReusesAndBounds: two frames through one Buf share backing storage
// — the first payload is overwritten by the second, the documented contract
// — a warmed Write plus Read allocates nothing, and a header past MaxLen is
// refused before anything is allocated.
func TestBufReusesAndBounds(t *testing.T) {
	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	Write(w, 1, []byte("first"))
	Write(w, 2, []byte("again"))
	w.Flush()
	var fb Buf
	_, first, err := fb.Read(&wire)
	if err != nil || string(first) != "first" {
		t.Fatalf("first frame: %q %v", first, err)
	}
	typ, second, err := fb.Read(&wire)
	if err != nil || typ != 2 || string(second) != "again" {
		t.Fatalf("second frame: %d %q %v", typ, second, err)
	}
	if &first[0] != &second[0] || string(first) != "again" {
		t.Fatalf("frames do not share storage: first now reads %q", first)
	}
	payload := []byte("steady")
	if n := testing.AllocsPerRun(100, func() {
		Write(w, 3, payload)
		w.Flush()
		if _, p, err := fb.Read(&wire); err != nil || string(p) != "steady" {
			t.Fatalf("steady frame: %q %v", p, err)
		}
	}); n != 0 {
		t.Fatalf("a warmed Write plus Read allocated %v times", n)
	}
	var big Buf
	if _, _, err := big.Read(bytes.NewReader([]byte{0x01, 0x00, 0x00, 0x01, 9})); err == nil || !strings.Contains(err.Error(), "oversized frame") {
		t.Fatalf("header past MaxLen: %v", err)
	}
	if big.b != nil {
		t.Fatalf("oversized header allocated %d bytes", cap(big.b))
	}
}

// FuzzDec: arbitrary bytes through every Dec method, in an order the input
// chooses, never panic, never read past the slice, and once an error is
// latched it stays and the cursor stops.
func FuzzDec(f *testing.F) {
	var e Enc
	e.Byte(3)
	e.U32(7)
	e.U64(1 << 40)
	e.Str("name")
	e.Bytes([]byte{0, 1, 2})
	f.Add([]byte{0, 1, 2, 3, 4}, e.B)
	f.Add([]byte{3, 3, 3}, []byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		// A private copy with nothing behind it: the race/checkptr builds
		// and the bounds checks fault on any read past len(data).
		d := &Dec{Proto: "fuzz", B: append([]byte(nil), data...)}
		for _, op := range ops {
			before, failed := d.Off, d.Err
			switch op % 6 {
			case 0:
				d.Byte()
			case 1:
				d.U32()
			case 2:
				d.U64()
			case 3:
				_ = d.Str()
			case 4:
				if b := d.StrBytes(); len(b) > len(data) {
					t.Fatalf("StrBytes returned %d bytes of a %d-byte payload", len(b), len(data))
				}
			case 5:
				if b := d.Bytes(); len(b) > len(data) {
					t.Fatalf("Bytes returned %d bytes of a %d-byte payload", len(b), len(data))
				}
			}
			if d.Off < before || d.Off > len(data) {
				t.Fatalf("cursor at %d of %d after op %d", d.Off, len(data), op%6)
			}
			if failed != nil && (d.Err != failed || d.Off != before) {
				t.Fatalf("latched error %v became %v, cursor %d -> %d", failed, d.Err, before, d.Off)
			}
		}
		if d.Err != nil && !strings.HasPrefix(d.Err.Error(), "fuzz: truncated ") {
			t.Fatalf("error without the protocol's prefix: %v", d.Err)
		}
	})
}

// scriptListener is a net.Listener whose Accept results are scripted.
type scriptListener struct {
	steps chan func() (net.Conn, error)
}

func (s *scriptListener) Accept() (net.Conn, error) { return (<-s.steps)() }
func (s *scriptListener) Close() error              { return nil }
func (s *scriptListener) Addr() net.Addr            { return nil }

// TestAcceptSurvivesTransientError: an Accept error that is not the
// listener closing is logged and retried; the connection behind it is served.
func TestAcceptSurvivesTransientError(t *testing.T) {
	served := make(chan byte, 1)
	var logged atomic.Int32
	l := NewListener("test", func(string, ...any) { logged.Add(1) },
		func(_ net.Conn, br *bufio.Reader, _ *bufio.Writer) {
			b, _ := br.ReadByte()
			served <- b
		})
	client, server := net.Pipe()
	defer client.Close()
	ln := &scriptListener{steps: make(chan func() (net.Conn, error), 3)}
	ln.steps <- func() (net.Conn, error) { return nil, errors.New("accept: too many open files") }
	ln.steps <- func() (net.Conn, error) { return server, nil }
	ln.steps <- func() (net.Conn, error) { return nil, net.ErrClosed }
	l.serve(ln) // returns at net.ErrClosed, not at the transient error
	if logged.Load() != 1 {
		t.Fatalf("transient accept error logged %d times, want 1", logged.Load())
	}
	client.Write([]byte{42})
	if b := <-served; b != 42 {
		t.Fatalf("connection accepted after the error served byte %d", b)
	}
	l.Close()
}

// TestDrain pins what Drain guarantees.
func TestDrain(t *testing.T) {
	// echo answers each byte with itself; a 'w' byte first waits for release.
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	echo := func(_ net.Conn, br *bufio.Reader, bw *bufio.Writer) {
		for {
			b, err := br.ReadByte()
			if err != nil {
				return
			}
			if b == 'w' {
				entered <- struct{}{}
				<-release
			}
			bw.WriteByte(b)
			bw.Flush()
		}
	}
	dial := func(t *testing.T, addr net.Addr) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	readByte := func(c net.Conn) (byte, error) {
		var b [1]byte
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := io.ReadFull(c, b[:])
		return b[0], err
	}

	t.Run("in-flight request is answered, idle connection closes early", func(t *testing.T) {
		l := NewListener("test", nil, echo)
		addr, err := l.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		busy, idle := dial(t, addr), dial(t, addr)
		// One round trip on each: both are accepted and tracked.
		for _, c := range []net.Conn{busy, idle} {
			c.Write([]byte{'a'})
			if b, err := readByte(c); err != nil || b != 'a' {
				t.Fatalf("echo: %c %v", b, err)
			}
		}
		busy.Write([]byte{'w'})
		<-entered
		const grace = 30 * time.Second
		start := time.Now()
		dropped := make(chan int)
		go func() { dropped <- l.Drain(grace) }()
		// (b) The idle connection is hung up at the idle grace, long
		// before grace — while the busy handler is still running.
		if _, err := readByte(idle); err != io.EOF {
			t.Fatalf("idle connection: %v, want EOF", err)
		}
		if waited := time.Since(start); waited > grace/2 {
			t.Fatalf("idle connection closed after %s of a %s grace", waited, grace)
		}
		// (d) Listen during the drain is refused.
		if _, err := l.Listen("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "test: listener closed") {
			t.Fatalf("Listen during Drain: %v", err)
		}
		// (a) The request in flight is answered, then its connection closes.
		close(release)
		if b, err := readByte(busy); err != nil || b != 'w' {
			t.Fatalf("in-flight reply: %c %v", b, err)
		}
		if _, err := readByte(busy); err != io.EOF {
			t.Fatalf("after the reply: %v, want EOF", err)
		}
		if n := <-dropped; n != 0 {
			t.Fatalf("Drain dropped %d connections, want 0", n)
		}
		if _, err := l.Listen("127.0.0.1:0"); err == nil {
			t.Fatal("Listen after Drain succeeded")
		}
	})

	t.Run("handler that outlives grace is dropped and counted", func(t *testing.T) {
		// This handler ignores its read deadline and returns only when the
		// connection is closed under it.
		stubborn := func(_ net.Conn, br *bufio.Reader, bw *bufio.Writer) {
			for {
				b, err := br.ReadByte()
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					continue
				}
				if err != nil {
					return
				}
				bw.WriteByte(b)
				bw.Flush()
			}
		}
		l := NewListener("test", nil, stubborn)
		addr, err := l.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := dial(t, addr)
		c.Write([]byte{'a'})
		if b, err := readByte(c); err != nil || b != 'a' {
			t.Fatalf("echo: %c %v", b, err)
		}
		if n := l.Drain(50 * time.Millisecond); n != 1 {
			t.Fatalf("Drain dropped %d connections, want 1", n)
		}
		if _, err := readByte(c); err == nil {
			t.Fatal("connection still open after Drain")
		}
	})

	t.Run("connection accepted after Drain is closed unserved", func(t *testing.T) {
		var calls atomic.Int32
		l := NewListener("test", nil, func(net.Conn, *bufio.Reader, *bufio.Writer) { calls.Add(1) })
		l.Drain(time.Second)
		client, server := net.Pipe()
		defer client.Close()
		ln := &scriptListener{steps: make(chan func() (net.Conn, error), 1)}
		ln.steps <- func() (net.Conn, error) { return server, nil }
		l.serve(ln)
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := client.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("late connection: %v, want EOF", err)
		}
		if calls.Load() != 0 {
			t.Fatal("late connection was served")
		}
	})
}
