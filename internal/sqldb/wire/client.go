package wire

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/frame"
	"repro/internal/pool"
	"repro/internal/sqldb"
)

// Conn is one client connection. It is not safe for concurrent use; the
// Pool hands each borrower exclusive access, like a JDBC connection.
//
// Conn tracks which statements it has prepared on its server session
// (query text -> client-assigned id), so the prepared-statement path is
// transparent: Exec prepares on first use, pipelining the PREPARE with the
// first EXECUTE in a single round trip, and a freshly dialed connection
// simply starts with an empty map and re-prepares. The map holds at most
// maxStmtsPerConn texts, the server's cap (see evict).
type Conn struct {
	tc   *pool.Conn // socket, buffers and the per-operation deadline (Arm)
	cols colCache   // column-name reuse across responses

	stmts  map[string]uint32
	nextID uint32

	// pending counts frames written whose replies have not been read yet
	// and carry nothing the caller wants: BEGIN (pipelined with the
	// transaction's first statement) and an evicting CLOSE-STMT (pipelined
	// with the PREPARE that takes its slot). Their replies are drained just
	// before the caller's own.
	pending int
}

// Dial connects to a wire server with the default dial and per-operation
// timeouts.
func Dial(addr string) (*Conn, error) {
	return DialT(addr, pool.Timeouts{}.WithDefaults())
}

// DialT connects to a wire server, bounding the dial with t.Dial and every
// subsequent operation with t.Op (zero fields: unbounded).
func DialT(addr string, t pool.Timeouts) (*Conn, error) {
	tc, err := pool.Dial("wire", addr, t)
	if err != nil {
		return nil, err
	}
	return &Conn{tc: tc, stmts: make(map[string]uint32)}, nil
}

// send writes one request frame from a pooled encoder (unflushed) and
// returns the encoder to the pool.
func (c *Conn) send(typ byte, e *enc) error {
	err := frame.Write(c.tc.BW, typ, e.B)
	putEnc(e)
	if err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// sendPrepare frames a PREPARE for id/query (unflushed).
func (c *Conn) sendPrepare(id uint32, query string) error {
	e := getEnc()
	encodePrepare(e, id, query)
	return c.send(msgPrepare, e)
}

// sendExecStmt frames an EXECUTE-by-id (unflushed).
func (c *Conn) sendExecStmt(id uint32, args []sqldb.Value) error {
	e := getEnc()
	encodeExecStmt(e, id, args)
	return c.send(msgExecStmt, e)
}

// flush pushes framed requests to the server.
func (c *Conn) flush() error {
	if err := c.tc.BW.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// readReply reads one response frame and decodes it as a result.
func (c *Conn) readReply() (*sqldb.Result, error) {
	typ, payload, err := c.tc.Buf.Read(c.tc.BR)
	if err != nil {
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	switch typ {
	case msgResult:
		return decodeResult(payload, &c.cols)
	case msgPrepOK, msgTxnOK:
		return &sqldb.Result{}, nil
	case msgError:
		return nil, &ServerError{Msg: string(payload)}
	default:
		return nil, fmt.Errorf("wire: unexpected frame type 0x%x", typ)
	}
}

// drainPending reads the replies of the pending frames, keeping the stream
// in lockstep. Callers invoke it after flushing, before reading their own
// reply.
func (c *Conn) drainPending() error {
	for c.pending > 0 {
		c.pending--
		if _, err := c.readReply(); err != nil {
			return err
		}
	}
	return nil
}

// Begin opens a transaction on the connection's server session. The frame
// is only buffered: it ships with the next statement (or Commit/Rollback),
// so opening a transaction costs no extra round trip.
func (c *Conn) Begin() error {
	c.tc.Arm()
	if err := frame.Write(c.tc.BW, msgBegin, nil); err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	c.pending++
	return nil
}

// Commit commits the open transaction (a server-side no-op without one).
func (c *Conn) Commit() error { return c.txnEnd(msgCommit) }

// Rollback rolls the open transaction back (a no-op without one).
func (c *Conn) Rollback() error { return c.txnEnd(msgRollback) }

// PrepareTxn brings the open transaction to the prepared state (phase one
// of two-phase commit, protocol v4): the server keeps every lock and
// refuses further statements until Commit or Rollback. An error means the
// transaction could not prepare and the coordinator must roll back
// everywhere.
func (c *Conn) PrepareTxn() error { return c.txnEnd(msgPrepareTxn) }

func (c *Conn) txnEnd(typ byte) error {
	c.tc.Arm()
	if err := frame.Write(c.tc.BW, typ, nil); err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	if err := c.flush(); err != nil {
		return err
	}
	if err := c.drainPending(); err != nil {
		return err
	}
	_, err := c.readReply()
	return err
}

// Exec runs one statement over the prepared-statement path, preparing it on
// this connection first if needed. The first use pipelines PREPARE and
// EXECUTE into one round trip; thereafter only the 4-byte statement id and
// the arguments cross the wire. A connection whose table is full retires
// one statement first (evict), in the same flush, so a one-off text costs
// one round trip too and never reaches the server's cap.
func (c *Conn) Exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	c.tc.Arm()
	id, prepared := c.stmts[query]
	if !prepared {
		if len(c.stmts) >= maxStmtsPerConn {
			if err := c.evict(); err != nil {
				return nil, err
			}
		}
		c.nextID++
		id = c.nextID
		if err := c.sendPrepare(id, query); err != nil {
			return nil, err
		}
	}
	if err := c.sendExecStmt(id, args); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	if err := c.drainPending(); err != nil {
		return nil, err
	}
	if !prepared {
		if _, perr := c.readReply(); perr != nil {
			// The pipelined EXECUTE hit the unregistered id; drain its
			// error response to keep the stream in lockstep, then report
			// the PREPARE failure (a transport error poisons both reads).
			if _, eerr := c.readReply(); eerr != nil && !IsServerError(eerr) {
				return nil, eerr
			}
			return nil, perr
		}
		c.stmts[query] = id
	}
	return c.readReply()
}

// Deprecated: ExecCached is Exec.
func (c *Conn) ExecCached(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return c.Exec(query, args...)
}

// evict retires one statement — whichever the map yields first — on both
// ends: its CLOSE-STMT is framed (unflushed) ahead of the PREPARE that
// takes its slot, and its reply is drained with the other pipelined ones.
func (c *Conn) evict() error {
	for query, id := range c.stmts {
		delete(c.stmts, query)
		e := getEnc()
		encodeCloseStmt(e, id)
		c.pending++
		return c.send(msgCloseStmt, e)
	}
	return nil
}

// Close closes the underlying connection (the server releases its locks
// and every statement id prepared on it).
func (c *Conn) Close() error { return c.tc.Close() }

// ServerError is an error reported by the database server (as opposed to a
// transport failure): the connection remains usable.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// IsServerError reports whether err is a database-side error.
func IsServerError(err error) bool {
	var se *ServerError
	return errors.As(err, &se)
}

// Pool is a fixed-size connection pool: the engine-side throttle whose size
// the paper's application servers configure. Borrowers block FIFO until a
// connection frees. It is a typed wrapper over the shared instrumented
// pool subsystem (internal/pool).
type Pool struct{ p *pool.Pool[*Conn] }

// Both statement surfaces of the client side are sqldb.Execers.
var (
	_ sqldb.Execer = (*Pool)(nil)
	_ sqldb.Execer = (*Conn)(nil)
)

// NewPool creates a pool of up to size connections to addr with the
// default timeouts. Connections are opened lazily.
func NewPool(addr string, size int) *Pool {
	return NewPoolT(addr, size, pool.Timeouts{})
}

// NewPoolT creates a pool of up to size connections to addr, bounding
// dials, operations and borrow waits with t (zero fields take the
// pool-package defaults; negative fields disable a bound).
func NewPoolT(addr string, size int, t pool.Timeouts) *Pool {
	t = t.WithDefaults()
	waitTimeout := time.Duration(-1)
	if t.Wait > 0 {
		waitTimeout = t.Wait
	}
	return &Pool{
		p: pool.New(pool.Config[*Conn]{
			Name:        "db@" + addr,
			Dial:        func() (*Conn, error) { return DialT(addr, t) },
			Destroy:     func(c *Conn) { c.Close() },
			Size:        size,
			WaitTimeout: waitTimeout,
		}),
	}
}

// Get borrows a connection, dialing a new one if the pool has capacity.
func (p *Pool) Get() (*Conn, error) {
	c, err := p.p.Get()
	if errors.Is(err, pool.ErrClosed) {
		return nil, errors.New("wire: pool closed")
	}
	return c, err
}

// Put returns a borrowed connection. Pass broken=true after a transport
// error to discard it and free capacity for a fresh dial.
func (p *Pool) Put(c *Conn, broken bool) { p.p.Put(c, broken) }

// Exec borrows a connection and runs the statement on it (Conn.Exec: by id,
// prepared on that connection first when needed). A server-side error
// (IsServerError) keeps the connection; a transport error discards it. An
// idempotent statement then retries once on a fresh connection, which
// re-prepares from scratch — statement ids are per-connection state carried
// by the Conn itself, so no stale id is ever executed. Writes are never
// retried: the server may have applied the statement before the connection
// died.
func (p *Pool) Exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return p.ExecNotify(nil, query, args...)
}

// ExecNotify is Exec with a per-attempt hook: onAttempt (when non-nil) runs
// just before every try, including the retry a stale connection triggers.
// The cluster's cached-read path uses it to re-capture its cache-version
// stamp for the attempt that actually produces the rows.
func (p *Pool) ExecNotify(onAttempt func(int), query string, args ...sqldb.Value) (*sqldb.Result, error) {
	var res *sqldb.Result
	err := p.p.DoNotify(retryableStmt(query), func(err error) bool { return !IsServerError(err) },
		onAttempt,
		func(c *Conn) error {
			var err error
			res, err = c.Exec(query, args...)
			return err
		})
	if errors.Is(err, pool.ErrClosed) {
		return nil, errors.New("wire: pool closed")
	}
	return res, err
}

// retryableStmt reports whether a statement may safely run twice. Only
// idempotent statements absorb a stale pooled connection with a retry: a
// write retried after a transport failure could double-apply if the server
// had already executed it before the connection died.
func retryableStmt(query string) bool {
	q := strings.TrimSpace(query)
	i := 0
	for i < len(q) && q[i] != ' ' && q[i] != '\t' && q[i] != '\n' {
		i++
	}
	return strings.EqualFold(q[:i], "SELECT")
}

// Stats snapshots the pool's saturation counters.
func (p *Pool) Stats() pool.Stats { return p.p.Stats() }

// InUse returns the number of borrowed connections — the cluster read
// router's load gauge.
func (p *Pool) InUse() int { return p.p.InUse() }

// Reset discards the idle connections (they are stale after the server
// restarted); borrowers dial fresh and transparently re-prepare.
func (p *Pool) Reset() { p.p.Reset() }

// Close closes idle connections and marks the pool closed. Borrowed
// connections are closed as they are returned.
func (p *Pool) Close() { p.p.Close() }
