package pool

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/frame"
)

// Conn is one TCP connection of a request/response transport (sqldb/wire,
// internal/ajp, internal/rmi): the socket, a 32 KiB buffered reader/writer
// pair, the buffer reply frames are read into (reused across replies: a
// payload is valid until the next Buf.Read), and the per-operation deadline
// from Timeouts.Op.
type Conn struct {
	NC  net.Conn
	BR  *bufio.Reader
	BW  *bufio.Writer
	Buf frame.Buf

	// op bounds one operation (all of its writes, flushes and reads) with
	// a connection deadline, so a stalled peer is a transport error, not a
	// hang; 0 means unbounded. armedUntil amortizes SetDeadline, a
	// timer-heap operation: fast back-to-back operations reuse the armed
	// deadline while >3/4 of the window remains (an operation gets between
	// 0.75×op and op of budget — bounded is the contract, not precise).
	op         time.Duration
	armedUntil time.Time
}

// Arm starts the per-operation deadline clock. Call it at the top of an
// operation, not at flush, so writes that spill the buffer mid-encode are
// bounded too.
func (c *Conn) Arm() {
	if c.op > 0 {
		if now := time.Now(); c.armedUntil.Sub(now) <= c.op-c.op/4 {
			c.armedUntil = now.Add(c.op)
			c.NC.SetDeadline(c.armedUntil)
		}
	}
}

// Close closes the socket.
func (c *Conn) Close() error { return c.NC.Close() }

// Dial opens one Conn to addr for the named protocol, bounding the dial
// with t.Dial and the connection's round trips with t.Op. t is taken as
// given (zero: unbounded); callers resolve defaults with WithDefaults.
func Dial(proto, addr string, t Timeouts) (*Conn, error) {
	var nc net.Conn
	var err error
	if t.Dial > 0 {
		nc, err = net.DialTimeout("tcp", addr, t.Dial)
	} else {
		nc, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: dial %s: %w", proto, addr, err)
	}
	return &Conn{
		NC: nc, op: t.Op,
		BR: bufio.NewReaderSize(nc, 32<<10),
		BW: bufio.NewWriterSize(nc, 32<<10),
	}, nil
}

// NewTCP returns the pool "<proto>@<addr>" of up to size (default 8)
// connections to addr: dials bounded by t.Dial, round trips by t.Op (see
// Conn.Arm), borrow waits by t.Wait — zero fields take the package
// defaults, negative fields disable a bound. wrap turns each dialed Conn
// into the protocol's per-connection value.
func NewTCP[T io.Closer](proto, addr string, size int, t Timeouts, wrap func(*Conn) T) *Pool[T] {
	if size <= 0 {
		size = 8
	}
	t = t.WithDefaults()
	waitTimeout := time.Duration(-1)
	if t.Wait > 0 {
		waitTimeout = t.Wait
	}
	return New(Config[T]{
		Name: proto + "@" + addr,
		Dial: func() (T, error) {
			c, err := Dial(proto, addr, t)
			if err != nil {
				var zero T
				return zero, err
			}
			return wrap(c), nil
		},
		Destroy:     func(c T) { c.Close() },
		Size:        size,
		WaitTimeout: waitTimeout,
	})
}
