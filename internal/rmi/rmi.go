// Package rmi is a remote method invocation layer in the spirit of Java
// RMI, which the paper's servlets use to call session beans on the JOnAS
// EJB server. Services are plain Go values whose exported methods have the
// signature
//
//	func (s *Svc) Method(args *ArgsT, reply *ReplyT) error
//
// Arguments and replies travel gob-encoded over persistent pooled TCP
// connections. Each side keeps one gob encoder and one gob decoder alive
// for the life of a connection: gob streams send a type's wire description
// once and the decoder compiles it once, so per-call encoder/decoder
// construction would re-transmit and re-compile type metadata on every
// invocation — it showed up as ~12% of CPU on the EJB benchmark path. The
// framing is unchanged; only where the gob byte stream starts and ends per
// call differs, and a connection whose streams can desync (a call the
// server could not fully decode, or a reply it could not encode) is hung up
// after the fault is delivered, so the pooled-connection retry path redials
// rather than misinterpreting stream state.
package rmi

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"

	"repro/internal/frame"
	"repro/internal/pool"
)

const (
	frameCall  = 0x04
	frameReply = 0x05
	frameFault = 0x06
)

// method is one dispatchable service method.
type method struct {
	fn    reflect.Value
	args  reflect.Type // pointer elem type
	reply reflect.Type // pointer elem type
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// Server dispatches calls to registered services. Listen and Close are the
// shared listener skeleton's.
type Server struct {
	*frame.Listener

	mu      sync.Mutex
	methods map[string]*method
}

// NewServer returns an empty server.
func NewServer() *Server {
	s := &Server{methods: make(map[string]*method)}
	s.Listener = frame.NewListener("rmi", nil, s.serve)
	return s
}

// Register exposes every suitable exported method of svc under
// "name.Method". It returns an error when svc has no usable methods.
func (s *Server) Register(name string, svc any) error {
	v := reflect.ValueOf(svc)
	t := v.Type()
	count := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		mt := m.Type
		// func(receiver, *ArgsT, *ReplyT) error
		if mt.NumIn() != 3 || mt.NumOut() != 1 || mt.Out(0) != errType {
			continue
		}
		if mt.In(1).Kind() != reflect.Pointer || mt.In(2).Kind() != reflect.Pointer {
			continue
		}
		key := name + "." + m.Name
		if _, dup := s.methods[key]; dup {
			return fmt.Errorf("rmi: duplicate method %s", key)
		}
		s.methods[key] = &method{
			fn:    v.Method(i),
			args:  mt.In(1).Elem(),
			reply: mt.In(2).Elem(),
		}
		count++
	}
	if count == 0 {
		return fmt.Errorf("rmi: %s has no methods of the form Method(*Args, *Reply) error", name)
	}
	return nil
}

// gobStream is one direction's persistent gob state: the decoder reads
// successive per-frame payloads through a swappable reader, the encoder
// writes into a reusable buffer. Both survive across calls so gob type
// descriptions travel (and compile) once per connection, not once per call.
type gobStream struct {
	src swapReader
	dec *gob.Decoder
	buf bytes.Buffer
	enc *gob.Encoder
}

func newGobStream() *gobStream {
	gs := &gobStream{}
	gs.dec = gob.NewDecoder(&gs.src)
	gs.enc = gob.NewEncoder(&gs.buf)
	return gs
}

// swapReader feeds one frame's payload bytes at a time to a long-lived gob
// decoder. It implements io.ByteReader so gob reads it directly instead of
// wrapping it in a bufio.Reader, which would buffer past frame boundaries.
type swapReader struct{ r bytes.Reader }

func (s *swapReader) set(p []byte)               { s.r.Reset(p) }
func (s *swapReader) Read(p []byte) (int, error) { return s.r.Read(p) }
func (s *swapReader) ReadByte() (byte, error)    { return s.r.ReadByte() }

func (s *Server) serve(_ net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	gs := newGobStream()
	var fb frame.Buf // gob copies what it decodes; dispatch keeps nothing of payload
	for {
		typ, payload, err := fb.Read(br)
		if err != nil || typ != frameCall {
			return
		}
		outTyp, out, hangup := s.dispatch(gs, payload)
		if err := frame.Write(bw, outTyp, out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if hangup {
			// The gob streams may be out of step with the client's (a call
			// we could not decode, or a reply we could not encode). The
			// fault has been flushed; drop the connection so both sides
			// rebuild fresh streams instead of misreading state.
			return
		}
	}
}

// dispatch decodes "method\0gob(args)" and invokes it. hangup reports that
// the connection's gob streams can no longer be trusted and the connection
// must close once the fault is delivered; business faults (the method
// returning an error) keep the streams aligned and the connection alive.
func (s *Server) dispatch(gs *gobStream, payload []byte) (outTyp byte, out []byte, hangup bool) {
	idx := bytes.IndexByte(payload, 0)
	if idx < 0 {
		return frameFault, []byte("rmi: malformed call frame"), true
	}
	name := string(payload[:idx])
	s.mu.Lock()
	m := s.methods[name]
	s.mu.Unlock()
	if m == nil {
		// The undecoded args may have carried type descriptions the
		// client's encoder now considers sent: desync, hang up.
		return frameFault, []byte("rmi: no such method " + name), true
	}
	args := reflect.New(m.args)
	gs.src.set(payload[idx+1:])
	if err := gs.dec.Decode(args.Interface()); err != nil {
		return frameFault, []byte("rmi: decode args: " + err.Error()), true
	}
	reply := reflect.New(m.reply)
	res := m.fn.Call([]reflect.Value{args, reply})
	if errv := res[0].Interface(); errv != nil {
		return frameFault, []byte(errv.(error).Error()), false
	}
	gs.buf.Reset()
	if err := gs.enc.Encode(reply.Interface()); err != nil {
		return frameFault, []byte("rmi: encode reply: " + err.Error()), true
	}
	// out aliases gs.buf, which is only reset on the next call — after the
	// frame has been written.
	return frameReply, gs.buf.Bytes(), false
}

// Fault is an application- or dispatch-level error from the remote side.
type Fault struct{ Msg string }

func (f *Fault) Error() string { return f.Msg }

// IsFault reports whether err came from the remote method rather than the
// transport.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// Client calls a remote Server over a pool of persistent connections
// (internal/pool). It is safe for concurrent use.
type Client struct {
	pool *pool.Pool[*clientConn]
}

type clientConn struct {
	*pool.Conn
	gs *gobStream
}

// NewClient creates a client with up to size pooled connections and the
// default timeouts.
func NewClient(addr string, size int) *Client {
	return NewClientT(addr, size, pool.Timeouts{})
}

// NewClientT creates a client bounding dials with t.Dial, each call's
// round trip with t.Op, and pool borrow waits with t.Wait (zero fields
// take the pool-package defaults; negative fields disable a bound).
func NewClientT(addr string, size int, t pool.Timeouts) *Client {
	return &Client{pool: pool.NewTCP("rmi", addr, size, t, func(c *pool.Conn) *clientConn {
		return &clientConn{Conn: c, gs: newGobStream()}
	})}
}

// Call invokes "Svc.Method" with args, decoding the result into reply
// (a pointer). A remote Fault keeps the connection pooled; a transport
// error discards it and retries once on a fresh connection.
func (c *Client) Call(methodName string, args, reply any) error {
	return c.pool.Do(true, func(err error) bool { return !IsFault(err) },
		func(cc *clientConn) error {
			return roundTrip(cc, methodName, args, reply)
		})
}

// Stats snapshots the client pool's saturation counters.
func (c *Client) Stats() pool.Stats { return c.pool.Stats() }

func roundTrip(cc *clientConn, methodName string, args, reply any) error {
	cc.Arm()
	gs := cc.gs
	gs.buf.Reset()
	gs.buf.WriteString(methodName)
	gs.buf.WriteByte(0)
	if err := gs.enc.Encode(args); err != nil {
		// The encoder may have half-written type or value bytes into the
		// buffer; the stream is unusable. Close so the pool redials.
		cc.Close()
		return fmt.Errorf("rmi: encode args: %w", err)
	}
	if err := frame.Write(cc.BW, frameCall, gs.buf.Bytes()); err != nil {
		return err
	}
	if err := cc.BW.Flush(); err != nil {
		return err
	}
	typ, payload, err := cc.Buf.Read(cc.BR)
	if err != nil {
		return err
	}
	switch typ {
	case frameReply:
		if reply == nil {
			// The reply payload may carry type descriptions our persistent
			// decoder needs for later calls; since we cannot decode into
			// nothing, retire the connection instead of desyncing it.
			cc.Close()
			return nil
		}
		gs.src.set(payload)
		return gs.dec.Decode(reply)
	case frameFault:
		// A fault leaves both sides' streams aligned (the server encoded no
		// reply); if the server chose to hang up, our next use of this
		// connection fails as a transport error and is retried fresh.
		return &Fault{Msg: string(payload)}
	default:
		return fmt.Errorf("rmi: unexpected frame type 0x%x", typ)
	}
}

// Close closes pooled connections.
func (c *Client) Close() { c.pool.Close() }
