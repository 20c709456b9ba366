package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
)

// Server serves a sqldb.DB over TCP. Each connection gets its own session,
// so the open transaction and prepared statement ids (which map
// client-assigned u32s to ASTs held by the database's shared plan cache)
// are per-connection, as in MySQL. A connection that drops — or is drained
// by Shutdown — rolls back its open transaction when its session closes.
type Server struct {
	db     *sqldb.DB
	logger *log.Logger

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining atomic.Bool
	shutdown chan struct{}
	wg       sync.WaitGroup
	connWG   sync.WaitGroup // connection goroutines only (drain waits here)

	queries       atomic.Int64
	textExecs     atomic.Int64
	preparedExecs atomic.Int64
	prepares      atomic.Int64
}

// QueryCount returns the number of statements served — the database
// tier's work counter in the cross-tier telemetry.
func (s *Server) QueryCount() int64 { return s.queries.Load() }

// Stats describes the database tier's protocol traffic for the cross-tier
// telemetry: total statements, split by arrival path, the shared plan
// cache's hit/miss counters, the transaction subsystem's
// commit/abort/deadlock counters, and the snapshot-read (MVCC) counters.
type Stats struct {
	Queries       int64 `json:"queries"`
	TextExecs     int64 `json:"text_execs"`
	PreparedExecs int64 `json:"prepared_execs"`
	Prepares      int64 `json:"prepares"`

	PlanCache sqldb.PlanCacheStats `json:"plan_cache"`
	Txns      sqldb.TxnStats       `json:"txns"`
	MVCC      sqldb.MVCCStats      `json:"mvcc"`
	WAL       sqldb.WALStats       `json:"wal"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	return Stats{
		Queries:       s.queries.Load(),
		TextExecs:     s.textExecs.Load(),
		PreparedExecs: s.preparedExecs.Load(),
		Prepares:      s.prepares.Load(),
		PlanCache:     s.db.PlanCacheStats(),
		Txns:          s.db.TxnStats(),
		MVCC:          s.db.MVCCStats(),
		WAL:           s.db.WALStats(),
	}
}

// NewServer creates a server for db. logger may be nil to discard logs.
func NewServer(db *sqldb.DB, logger *log.Logger) *Server {
	return &Server{
		db:       db,
		logger:   logger,
		conns:    make(map[net.Conn]struct{}),
		shutdown: make(chan struct{}),
	}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("wire: server already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.shutdown:
				return
			default:
			}
			if s.draining.Load() {
				return
			}
			s.logf("accept: %v", err)
			return
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// txnStmts maps the v3/v4 transaction-control frames to their shared,
// stateless ASTs.
var txnStmts = map[byte]sqlparse.Statement{
	msgBegin:      &sqlparse.Begin{},
	msgCommit:     &sqlparse.Commit{},
	msgRollback:   &sqlparse.Rollback{},
	msgPrepareTxn: &sqlparse.PrepareTxn{},
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.connWG.Done()
	sess := s.db.NewSession()
	defer func() {
		sess.Close()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, 32<<10)
	w := bufio.NewWriterSize(conn, 32<<10)
	var fb frameBuf // request buffer, reused per frame
	// This connection's prepared ids. Bounded: see maxStmtsPerConn.
	stmts := make(map[uint32]sqlparse.Statement)
	for {
		typ, payload, err := fb.read(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.draining.Load() {
				s.logf("read: %v", err)
			}
			return
		}
		var res *sqldb.Result
		var outTyp byte = msgResult
		switch typ {
		case msgQuery:
			var query string
			var args []sqldb.Value
			query, args, err = decodeQuery(payload)
			if err == nil {
				s.queries.Add(1)
				s.textExecs.Add(1)
				res, err = sess.Exec(query, args...)
			}
		case msgPrepare:
			var id uint32
			var query string
			id, query, err = decodePrepare(payload)
			if err == nil {
				s.prepares.Add(1)
				if _, exists := stmts[id]; !exists && len(stmts) >= maxStmtsPerConn {
					// The shared plan cache is bounded; the per-connection
					// id table must be too, or one client could pin
					// unlimited ASTs.
					err = fmt.Errorf("wire: too many prepared statements (%d)", maxStmtsPerConn)
				} else {
					var stmt sqlparse.Statement
					stmt, err = s.db.Prepare(query)
					if err == nil {
						stmts[id] = stmt
						outTyp = msgPrepOK
					}
				}
			}
		case msgExecStmt:
			var id uint32
			var args []sqldb.Value
			id, args, err = decodeExecStmt(payload)
			if err == nil {
				stmt, ok := stmts[id]
				if !ok {
					err = fmt.Errorf("wire: unknown statement id %d", id)
				} else {
					s.queries.Add(1)
					s.preparedExecs.Add(1)
					res, err = sess.ExecStmt(stmt, args...)
				}
			}
		case msgCloseStmt:
			var id uint32
			id, err = decodeCloseStmt(payload)
			if err == nil {
				delete(stmts, id)
				outTyp = msgPrepOK
			}
		case msgBegin, msgCommit, msgRollback, msgPrepareTxn:
			// Transaction control frames carry no payload; they run the
			// corresponding statement on the session. queries counts them:
			// they are statements the tier served, arriving framed.
			s.queries.Add(1)
			_, err = sess.ExecStmt(txnStmts[typ])
			if err == nil {
				outTyp = msgTxnOK
			}
		default:
			s.logf("unexpected frame type 0x%x", typ)
			return
		}
		e := getEnc()
		switch {
		case err != nil:
			outTyp = msgError
			e.b = append(e.b, err.Error()...)
		case outTyp == msgResult:
			encodeResult(e, res)
		}
		err = writeFrame(w, outTyp, e.b)
		putEnc(e)
		if err != nil {
			s.logf("write: %v", err)
			return
		}
		// Pipelined requests (PREPARE immediately followed by EXECUTE) are
		// answered in one TCP segment: flush only before blocking on the
		// next read.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				s.logf("flush: %v", err)
				return
			}
			// A draining server finishes the in-flight statement (just
			// answered above) and hangs up before blocking on the next read.
			if s.draining.Load() {
				return
			}
		}
	}
}

// drainIdleGrace bounds how long Shutdown keeps an idle connection open:
// long enough for a request already shipped by the client — in a socket
// buffer or not yet parsed — to arrive and be answered, short enough that
// pooled-but-quiet client connections don't stall the drain.
const drainIdleGrace = 200 * time.Millisecond

// Shutdown drains the server: it stops accepting, lets every connection
// finish and answer work that is in flight (including requests already
// shipped but not yet read — each connection gets a short read deadline
// rather than an instant hangup), and falls back to a hard Close when
// grace elapses first. Transactions still open when their connection drains
// are aborted: each connection's session rolls back as it closes, so no
// half-applied transaction survives the shutdown. This is what dbserver
// runs on SIGTERM, so a cluster replica can leave without cutting off
// statements the broadcast already shipped — or keeping their effects
// without the commit that would justify them.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	ln := s.ln
	idle := drainIdleGrace
	if grace < idle {
		idle = grace
	}
	// Deadline instead of close: a connection with a request in flight
	// reads it, answers, and exits on the draining check; one with
	// nothing to say fails its read at the deadline and closes.
	deadline := time.Now().Add(idle)
	for c := range s.conns {
		c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		s.logf("drain grace %s elapsed, closing %d connections", grace, n)
	}
	return s.Close()
}

// Close stops accepting and closes every connection, releasing their locks.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.shutdown)
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf("wire: "+format, args...)
	}
}
