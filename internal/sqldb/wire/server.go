package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/telemetry"
)

// Server serves a sqldb.DB over TCP. Each connection gets its own session,
// so the open transaction and prepared statement ids (which map
// client-assigned u32s to ASTs held by the database's shared plan cache)
// are per-connection, as in MySQL. A connection that drops — or is drained
// by Shutdown — rolls back its open transaction when its session closes.
// Accepting, tracking, draining and closing connections are frame.Listener's.
type Server struct {
	db     *sqldb.DB
	logger *log.Logger
	l      *frame.Listener

	ctr counters
}

// counters is the server's atomic counter cells, each named after the
// telemetry.Tier field it fills: statements served, and their split by
// arrival path (SQL text or EXECUTE-by-id).
type counters struct {
	Queries, TextExecs, PreparedExecs atomic.Int64
}

// Telemetry is the server's share of the db-tier row: the statements it
// served. The engine's counters are its database's own row
// (sqldb.DB.Telemetry); they outlive the server when a backend restarts.
func (s *Server) Telemetry() telemetry.Tier {
	t := telemetry.Tier{Name: "db"}
	telemetry.Load(&t, &s.ctr)
	return t
}

// NewServer creates a server for db. logger may be nil to discard logs.
func NewServer(db *sqldb.DB, logger *log.Logger) *Server {
	s := &Server{db: db, logger: logger}
	s.l = frame.NewListener("wire", s.logf, s.serveConn)
	return s
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) { return s.l.Listen(addr) }

// txnStmts maps the v3/v4 transaction-control frames to their shared,
// stateless ASTs.
var txnStmts = map[byte]sqlparse.Statement{
	msgBegin:      &sqlparse.Begin{},
	msgCommit:     &sqlparse.Commit{},
	msgRollback:   &sqlparse.Rollback{},
	msgPrepareTxn: &sqlparse.PrepareTxn{},
}

func (s *Server) serveConn(_ net.Conn, r *bufio.Reader, w *bufio.Writer) {
	sess := s.db.NewSession()
	defer sess.Close()
	var fb frame.Buf // request buffer, reused per frame
	// This connection's prepared ids. Bounded: see maxStmtsPerConn.
	stmts := make(map[uint32]sqlparse.Statement)
	for {
		typ, payload, err := fb.Read(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.l.Draining() {
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
				s.ctr.Queries.Add(1)
				s.ctr.TextExecs.Add(1)
				res, err = sess.Exec(query, args...)
			}
		case msgPrepare:
			var id uint32
			var query string
			id, query, err = decodePrepare(payload)
			if err == nil {
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
					s.ctr.Queries.Add(1)
					s.ctr.PreparedExecs.Add(1)
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
			s.ctr.Queries.Add(1)
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
			e.B = append(e.B, err.Error()...)
		case outTyp == msgResult:
			encodeResult(e, res)
		}
		err = frame.Write(w, outTyp, e.B)
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
			if s.l.Draining() {
				return
			}
		}
	}
}

// Shutdown drains the server (frame.Listener.Drain): it stops accepting,
// lets every connection finish and answer work that is in flight, and falls
// back to a hard Close when grace elapses first. Transactions still open
// when their connection drains are aborted: each connection's session rolls
// back as it closes, so no half-applied transaction survives the shutdown.
// This is what dbserver runs on SIGTERM, so a cluster replica can leave
// without cutting off statements the broadcast already shipped — or keeping
// their effects without the commit that would justify them.
func (s *Server) Shutdown(grace time.Duration) { s.l.Drain(grace) }

// Close stops accepting and closes every connection, releasing their locks.
func (s *Server) Close() error { return s.l.Close() }

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf("wire: "+format, args...)
	}
}
