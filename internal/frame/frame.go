// Package frame is what the stack's four servers — the web server
// (internal/httpd), the servlet container's connector (internal/ajp), the
// EJB server (internal/rmi) and the database (internal/sqldb/wire) — share,
// with the fault proxy's relay (internal/chaos) as the Listener's fifth user:
// the life of a server socket (Listener: bind, one accept loop that outlives
// transient errors, one tracked goroutine per connection, Drain that lets
// work in flight finish, Close that waits for every handler) and, for the
// three framed links between the tiers, the frame codec (4-byte big-endian
// length + 1-byte type, payload capped at MaxLen; Write, Buf) and the field
// primitives payloads are built from (Enc, Dec). The pooled dialing side
// lives in internal/pool (pool.Conn). What a frame's payload means stays in
// the protocol packages.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxLen caps one frame's payload.
const MaxLen = 16 << 20

// Write sends one frame. The caller flushes. The header is built in w's
// free buffer space, so it allocates only when fewer than five bytes are
// free.
func Write(w *bufio.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxLen {
		return fmt.Errorf("frame: frame of %d bytes exceeds limit", len(payload))
	}
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	if _, err := w.Write(append(hdr, typ)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Buf reads frames into a buffer reused across calls, so a long-lived
// connection stops allocating per frame once the buffer reaches the
// conversation's working-set size. A payload aliases the buffer and is only
// valid until the next Read: decoders copy what they keep (string
// conversions and value constructors do).
type Buf struct {
	b   []byte
	hdr [5]byte
}

// Read receives one frame.
func (fb *Buf) Read(r io.Reader) (typ byte, payload []byte, err error) {
	if _, err = io.ReadFull(r, fb.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(fb.hdr[:4]))
	if n > MaxLen {
		return 0, nil, fmt.Errorf("frame: oversized frame (%d bytes)", n)
	}
	if cap(fb.b) < n {
		fb.b = make([]byte, n)
	}
	payload = fb.b[:n]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return fb.hdr[4], payload, nil
}

// Enc appends payload fields to B: big-endian integers, length-prefixed
// strings and byte slices.
type Enc struct{ B []byte }

func (e *Enc) Byte(v byte)    { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32)   { e.B = binary.BigEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)   { e.B = binary.BigEndian.AppendUint64(e.B, v) }
func (e *Enc) Str(s string)   { e.U32(uint32(len(s))); e.B = append(e.B, s...) }
func (e *Enc) Bytes(p []byte) { e.U32(uint32(len(p))); e.B = append(e.B, p...) }

// Dec is a cursor over one payload, the inverse of Enc. The first field
// that does not fit latches Err ("<Proto>: truncated … at offset N"); every
// later read returns a zero value, so a decoder checks Err once at the end.
type Dec struct {
	Proto string // error prefix: "wire", "ajp"
	B     []byte
	Off   int
	Err   error
}

// Fail latches the first error.
func (d *Dec) Fail(msg string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%s: %s at offset %d", d.Proto, msg, d.Off)
	}
}

// take returns the next n bytes, or nil after latching an error.
func (d *Dec) take(n int, what string) []byte {
	if d.Err != nil || n < 0 || n > len(d.B)-d.Off {
		d.Fail("truncated " + what)
		return nil
	}
	b := d.B[d.Off : d.Off+n]
	d.Off += n
	return b
}

func (d *Dec) Byte() byte {
	if b := d.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if b := d.take(4, "u32"); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if b := d.take(8, "u64"); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Str returns the next length-prefixed string (a copy).
func (d *Dec) Str() string { return string(d.StrBytes()) }

// StrBytes returns the next length-prefixed string's bytes without the
// string conversion, and Bytes the next length-prefixed byte slice. Both
// alias the payload — valid until the next frame is read into the same Buf —
// so callers that keep them copy.
func (d *Dec) StrBytes() []byte { return d.take(int(d.U32()), "string") }
func (d *Dec) Bytes() []byte    { return d.take(int(d.U32()), "bytes") }

// Listener accepts connections and runs serve on each, on its own
// goroutine, over a 32 KiB buffered reader/writer pair; the connection is
// closed when serve returns.
type Listener struct {
	proto string // error prefix: "httpd", "ajp", "rmi", "wire", "chaos"
	logf  func(format string, args ...any)
	fn    func(conn net.Conn, br *bufio.Reader, bw *bufio.Writer)

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining atomic.Bool
	wg       sync.WaitGroup // the accept loop and every handler
}

// NewListener returns an unbound listener for the named protocol. logf
// receives accept and drain diagnostics; nil discards them.
func NewListener(proto string, logf func(format string, args ...any), serve func(conn net.Conn, br *bufio.Reader, bw *bufio.Writer)) *Listener {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Listener{proto: proto, logf: logf, fn: serve, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr and serves in the background, returning the bound addr.
func (l *Listener) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen %s: %w", l.proto, addr, err)
	}
	l.mu.Lock()
	if l.closed || l.draining.Load() {
		l.mu.Unlock()
		ln.Close()
		return nil, errors.New(l.proto + ": listener closed")
	}
	l.ln = ln
	l.wg.Add(1)
	l.mu.Unlock()
	go func() {
		defer l.wg.Done()
		l.serve(ln)
	}()
	return ln.Addr(), nil
}

// serve is the accept loop. It ends when ln is closed — which Close and
// Drain do — and at nothing else: any other Accept error (EMFILE, an
// aborted handshake) is logged and retried after a pause that doubles from
// 5 ms to 1 s, net/http's rule, so a burst of them cannot leave the process
// listening and deaf.
func (l *Listener) serve(ln net.Listener) {
	var pause time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			l.logf("accept: %v; retrying in %s", err, pause)
			time.Sleep(pause)
			continue
		}
		pause = 0
		l.mu.Lock()
		if l.closed || l.draining.Load() {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go l.handle(conn)
	}
}

func (l *Listener) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		l.wg.Done()
	}()
	l.fn(conn, bufio.NewReaderSize(conn, 32<<10), bufio.NewWriterSize(conn, 32<<10))
}

// drainIdleGrace bounds how long Drain keeps an idle connection open: long
// enough for a request already shipped by the client — in a socket buffer
// or not yet parsed — to arrive and be answered, short enough that
// pooled-but-quiet client connections don't stall the drain.
const drainIdleGrace = 200 * time.Millisecond

// Drain stops accepting and lets every connection finish and answer the
// work it has in flight — including requests already shipped but not yet
// read: each connection gets a read deadline of min(grace, 200 ms) rather
// than an instant hangup, so one with a request on its way reads it and
// answers, and one with nothing to say fails its read and closes. When
// grace elapses first, the connections still open are closed under their
// handlers; Drain returns how many that was, after every handler has
// returned. The listener is closed afterwards.
func (l *Listener) Drain(grace time.Duration) (dropped int) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0
	}
	l.draining.Store(true)
	ln := l.ln
	deadline := time.Now().Add(min(grace, drainIdleGrace))
	for c := range l.conns {
		c.SetReadDeadline(deadline)
	}
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		l.mu.Lock()
		dropped = len(l.conns)
		l.mu.Unlock()
		l.logf("drain grace %s elapsed, closing %d connections", grace, dropped)
	}
	l.Close()
	return dropped
}

// Draining reports whether Drain has begun: a serve loop that has just
// flushed a reply may return instead of waiting out its read deadline.
func (l *Listener) Draining() bool { return l.draining.Load() }

// Close stops accepting, drops every connection and waits for their serve
// calls to return.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	ln := l.ln
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	l.wg.Wait()
	return nil
}
