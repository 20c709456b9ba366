// Package ajp implements a binary web-server-to-application-container
// protocol in the spirit of AJP12, the connector the paper's testbed uses
// between Apache and Tomcat. The web server (internal/httpd) forwards
// dynamic requests through a Connector; the container (internal/servlet)
// answers through a Listener. Connections are persistent and pooled, as
// mod_jk configures.
package ajp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"

	"repro/internal/frame"
	"repro/internal/httpd"
	"repro/internal/pool"
)

const (
	frameRequest  = 0x02
	frameResponse = 0x03
)

type enc struct{ b []byte }

func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("ajp: %s at offset %d", msg, d.off)
	}
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("truncated u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) rawBytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail("truncated bytes")
		return nil
	}
	p := make([]byte, n)
	copy(p, d.b[d.off:d.off+n])
	d.off += n
	return p
}

// encodeRequest flattens an httpd.Request.
func encodeRequest(req *httpd.Request) []byte {
	var e enc
	e.str(req.Method)
	e.str(req.Path)
	e.str(req.Query.Encode())
	e.u32(uint32(len(req.Header)))
	for _, k := range headerKeys(req.Header) {
		e.str(k)
		e.str(req.Header[k])
	}
	e.bytes(req.Body)
	return e.b
}

func headerKeys(h httpd.Header) []string {
	ks := make([]string, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	// insertion-order independence: sort
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return ks
}

func decodeRequest(p []byte) (*httpd.Request, error) {
	d := &dec{b: p}
	req := &httpd.Request{Header: httpd.Header{}}
	req.Method = d.str()
	req.Path = d.str()
	rawQ := d.str()
	n := int(d.u32())
	if n > 1000 {
		return nil, errors.New("ajp: absurd header count")
	}
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		v := d.str()
		req.Header.Set(k, v)
	}
	req.Body = d.rawBytes()
	if d.err != nil {
		return nil, d.err
	}
	q, err := url.ParseQuery(rawQ)
	if err != nil {
		return nil, fmt.Errorf("ajp: bad query: %w", err)
	}
	req.Query = q
	return req, nil
}

func encodeResponse(resp *httpd.Response) []byte {
	var e enc
	e.u32(uint32(resp.Status))
	e.u32(uint32(len(resp.Header)))
	for _, k := range headerKeys(resp.Header) {
		e.str(k)
		e.str(resp.Header[k])
	}
	e.bytes(resp.Body)
	return e.b
}

func decodeResponse(p []byte) (*httpd.Response, error) {
	d := &dec{b: p}
	resp := &httpd.Response{Status: int(d.u32()), Header: httpd.Header{}}
	n := int(d.u32())
	if n > 1000 {
		return nil, errors.New("ajp: absurd header count")
	}
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		v := d.str()
		resp.Header.Set(k, v)
	}
	resp.Body = d.rawBytes()
	if d.err != nil {
		return nil, d.err
	}
	return resp, nil
}

// Listener serves container-side AJP: each accepted connection carries a
// sequence of request/response frames handled by h.
type Listener struct{ *frame.Listener }

// NewListener wraps a handler.
func NewListener(h httpd.Handler) *Listener {
	if h == nil {
		panic("ajp: nil handler")
	}
	return &Listener{frame.NewListener("ajp", func(br *bufio.Reader, bw *bufio.Writer) { serve(h, br, bw) })}
}

func serve(h httpd.Handler, br *bufio.Reader, bw *bufio.Writer) {
	for {
		typ, payload, err := frame.Read(br)
		if err != nil {
			return
		}
		if typ != frameRequest {
			return
		}
		req, err := decodeRequest(payload)
		var resp *httpd.Response
		if err != nil {
			resp = httpd.Error(400, err.Error())
		} else {
			resp, err = h.ServeHTTP(req)
			if err != nil {
				resp = httpd.Error(500, "container error")
			} else if resp == nil {
				resp = httpd.Error(404, "")
			}
		}
		if err := frame.Write(bw, frameResponse, encodeResponse(resp)); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Connector is the web-server side: an httpd.Handler that forwards requests
// to a container over pooled persistent connections (internal/pool, sized
// as mod_jk's connection_pool_size).
type Connector struct {
	pool *pool.Pool[*pool.Conn]
}

// NewConnector creates a connector to a container at addr with up to size
// pooled connections and the default timeouts.
func NewConnector(addr string, size int) *Connector {
	return NewConnectorT(addr, size, pool.Timeouts{})
}

// NewConnectorT creates a connector bounding dials with t.Dial, each
// round trip with t.Op, and pool borrow waits with t.Wait (zero fields
// take the pool-package defaults; negative fields disable a bound).
func NewConnectorT(addr string, size int, t pool.Timeouts) *Connector {
	return &Connector{pool: pool.NewTCP("ajp", addr, size, t, func(c *pool.Conn) *pool.Conn { return c })}
}

// ServeHTTP forwards the request and returns the container's response. Any
// round-trip error discards the connection; the first is retried once on a
// fresh connection, in case the pooled one was stale.
func (c *Connector) ServeHTTP(req *httpd.Request) (*httpd.Response, error) {
	var resp *httpd.Response
	err := c.pool.Do(true, nil, func(cc *pool.Conn) error {
		r, err := roundTrip(cc, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Stats snapshots the connector pool's saturation counters.
func (c *Connector) Stats() pool.Stats { return c.pool.Stats() }

func roundTrip(cc *pool.Conn, req *httpd.Request) (*httpd.Response, error) {
	cc.Arm()
	if err := frame.Write(cc.BW, frameRequest, encodeRequest(req)); err != nil {
		return nil, err
	}
	if err := cc.BW.Flush(); err != nil {
		return nil, err
	}
	typ, payload, err := frame.Read(cc.BR)
	if err != nil {
		return nil, err
	}
	if typ != frameResponse {
		return nil, fmt.Errorf("ajp: unexpected frame type 0x%x", typ)
	}
	return decodeResponse(payload)
}

// Close closes idle pooled connections.
func (c *Connector) Close() { c.pool.Close() }
