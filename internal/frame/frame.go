// Package frame is what the stack's two framed request/response transports
// — web server to servlet container (internal/ajp) and servlet to EJB
// server (internal/rmi) — share on the wire and on the accepting side: the
// frame codec (4-byte big-endian length + 1-byte type, the shape of the
// database wire protocol, payload capped at MaxLen) and the listener
// skeleton (bind, accept loop, one tracked goroutine per connection, Close
// that waits for every one of them). The pooled dialing side lives in
// internal/pool (pool.Conn). What a frame's payload means stays in the
// protocol packages.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxLen caps one frame's payload.
const MaxLen = 8 << 20

// Write sends one frame. The caller flushes.
func Write(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxLen {
		return fmt.Errorf("frame: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Read receives one frame into a fresh payload buffer, so the caller may
// keep it (or values aliasing it) past the next Read.
func Read(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxLen {
		return 0, nil, fmt.Errorf("frame: oversized frame (%d bytes)", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return 0, nil, err
	}
	return hdr[4], p, nil
}

// Listener accepts connections and runs serve on each, on its own
// goroutine, over a 32 KiB buffered reader/writer pair; the connection is
// closed when serve returns.
type Listener struct {
	proto string // error prefix: "ajp", "rmi"
	serve func(br *bufio.Reader, bw *bufio.Writer)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewListener returns an unbound listener for the named protocol.
func NewListener(proto string, serve func(br *bufio.Reader, bw *bufio.Writer)) *Listener {
	return &Listener{proto: proto, serve: serve, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr and serves in the background, returning the bound addr.
func (l *Listener) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen %s: %w", l.proto, addr, err)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return nil, errors.New(l.proto + ": listener closed")
	}
	l.ln = ln
	l.mu.Unlock()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				conn.Close()
				return
			}
			l.conns[conn] = struct{}{}
			l.mu.Unlock()
			l.wg.Add(1)
			go l.handle(conn)
		}
	}()
	return ln.Addr(), nil
}

func (l *Listener) handle(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	l.serve(bufio.NewReaderSize(conn, 32<<10), bufio.NewWriterSize(conn, 32<<10))
}

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
