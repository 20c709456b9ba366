package httpd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/telemetry"
)

// Server accepts HTTP/1.x connections and dispatches requests to a Handler.
// Accepting, tracking, draining and closing connections are frame.Listener's.
type Server struct {
	handler Handler
	logger  *log.Logger
	l       *frame.Listener

	// The counter cells, named after the telemetry.Tier fields they fill.
	ctr struct{ Requests, Bytes atomic.Int64 }
}

// Telemetry is the server's web-tier row: requests dispatched to the
// handler and the response body bytes written.
func (s *Server) Telemetry() telemetry.Tier {
	t := telemetry.Tier{Name: "web"}
	telemetry.Load(&t, &s.ctr)
	return t
}

// NewServer creates a server dispatching to handler. logger may be nil.
func NewServer(handler Handler, logger *log.Logger) *Server {
	if handler == nil {
		panic("httpd: nil handler")
	}
	s := &Server{handler: handler, logger: logger}
	s.l = frame.NewListener("httpd", s.logf, s.serveConn)
	return s
}

// Listen binds addr and serves in background goroutines, returning the
// bound address (useful with port 0).
func (s *Server) Listen(addr string) (net.Addr, error) { return s.l.Listen(addr) }

// Shutdown drains the server (frame.Listener.Drain): it stops accepting,
// lets every connection answer the request it has in flight, and falls back
// to a hard Close when grace elapses first.
func (s *Server) Shutdown(grace time.Duration) { s.l.Drain(grace) }

// Close stops the listener and all connections.
func (s *Server) Close() error { return s.l.Close() }

func (s *Server) serveConn(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	for {
		req, err := readRequest(br)
		if err != nil {
			// A draining server's read deadline ends an idle keep-alive
			// connection; that is not a malformed request.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !s.l.Draining() {
				s.logf("parse: %v", err)
				resp := Error(400, err.Error())
				_ = writeResponse(bw, resp, "HTTP/1.1", false, "close")
				_ = bw.Flush()
			}
			return
		}
		req.RemoteAddr = conn.RemoteAddr().String()

		s.ctr.Requests.Add(1)
		resp, herr := s.handler.ServeHTTP(req)
		if herr != nil {
			s.logf("handler %s %s: %v", req.Method, req.Path, herr)
			resp = Error(500, "internal server error")
		} else if resp == nil {
			resp = Error(404, "")
		}

		keepAlive := wantKeepAlive(req)
		connHeader := "keep-alive"
		if !keepAlive {
			connHeader = "close"
		}
		headOnly := req.Method == "HEAD"
		if err := writeResponse(bw, resp, "HTTP/1.1", headOnly, connHeader); err != nil {
			s.logf("write: %v", err)
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if !headOnly {
			s.ctr.Bytes.Add(int64(len(resp.Body)))
		}
		if !keepAlive {
			return
		}
	}
}

// wantKeepAlive implements the HTTP/1.0 and 1.1 persistence rules.
func wantKeepAlive(req *Request) bool {
	c := strings.ToLower(req.Header.Get("Connection"))
	if req.Proto == "HTTP/1.0" {
		return c == "keep-alive"
	}
	return c != "close"
}

// writeResponse serializes resp.
func writeResponse(w *bufio.Writer, resp *Response, proto string, headOnly bool, connHeader string) error {
	if resp.Header == nil {
		resp.Header = Header{}
	}
	fmt.Fprintf(w, "%s %d %s\r\n", proto, resp.Status, statusText(resp.Status))
	resp.Header.Set("Content-Length", strconv.Itoa(len(resp.Body)))
	if resp.Header.Get("Content-Type") == "" {
		resp.Header.Set("Content-Type", "text/html; charset=utf-8")
	}
	resp.Header.Set("Connection", connHeader)
	resp.Header.Set("Server", "repro-httpd/1.0")
	for _, k := range resp.Header.Keys() {
		fmt.Fprintf(w, "%s: %s\r\n", k, resp.Header[k])
	}
	if _, err := io.WriteString(w, "\r\n"); err != nil {
		return err
	}
	if headOnly {
		return nil
	}
	_, err := w.Write(resp.Body)
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf("httpd: "+format, args...)
	}
}
