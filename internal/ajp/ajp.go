// Package ajp implements a binary web-server-to-application-container
// protocol in the spirit of AJP12, the connector the paper's testbed uses
// between Apache and Tomcat. The web server (internal/httpd) forwards
// dynamic requests through a Connector; the container (internal/servlet)
// answers through a Listener. Connections are persistent and pooled, as
// mod_jk configures.
package ajp

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/url"

	"repro/internal/frame"
	"repro/internal/httpd"
	"repro/internal/pool"
)

const (
	frameRequest  = 0x02
	frameResponse = 0x03
)

// encodeRequest and encodeResponse flatten an httpd message: its first
// fields, the header block, then the body.
func encodeRequest(req *httpd.Request) []byte {
	var e frame.Enc
	e.Str(req.Method)
	e.Str(req.Path)
	e.Str(req.Query.Encode())
	encodeHeader(&e, req.Header)
	e.Bytes(req.Body)
	return e.B
}

func encodeResponse(resp *httpd.Response) []byte {
	var e frame.Enc
	e.U32(uint32(resp.Status))
	encodeHeader(&e, resp.Header)
	e.Bytes(resp.Body)
	return e.B
}

// encodeHeader writes the header block of both directions: a count, then
// each name and value in sorted name order.
func encodeHeader(e *frame.Enc, h httpd.Header) {
	e.U32(uint32(len(h)))
	for _, k := range h.Keys() {
		e.Str(k)
		e.Str(h[k])
	}
}

// decodeHeader reads encodeHeader's block; a count over 1000 latches an
// error on d.
func decodeHeader(d *frame.Dec) httpd.Header {
	n := int(d.U32())
	if n > 1000 {
		d.Fail("absurd header count")
		return nil
	}
	h := httpd.Header{}
	for i := 0; i < n && d.Err == nil; i++ {
		k := d.Str()
		h.Set(k, d.Str())
	}
	return h
}

// decodeRequest and decodeResponse copy every field out of p, which aliases
// the connection's frame.Buf.
func decodeRequest(p []byte) (*httpd.Request, error) {
	d := &frame.Dec{Proto: "ajp", B: p}
	req := &httpd.Request{Method: d.Str(), Path: d.Str()}
	rawQ := d.Str()
	req.Header = decodeHeader(d)
	req.Body = bytes.Clone(d.Bytes())
	if d.Err != nil {
		return nil, d.Err
	}
	q, err := url.ParseQuery(rawQ)
	if err != nil {
		return nil, fmt.Errorf("ajp: bad query: %w", err)
	}
	req.Query = q
	return req, nil
}

func decodeResponse(p []byte) (*httpd.Response, error) {
	d := &frame.Dec{Proto: "ajp", B: p}
	resp := &httpd.Response{Status: int(d.U32()), Header: decodeHeader(d)}
	resp.Body = bytes.Clone(d.Bytes())
	if d.Err != nil {
		return nil, d.Err
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
	return &Listener{frame.NewListener("ajp", nil, func(_ net.Conn, br *bufio.Reader, bw *bufio.Writer) { serve(h, br, bw) })}
}

func serve(h httpd.Handler, br *bufio.Reader, bw *bufio.Writer) {
	var fb frame.Buf
	for {
		typ, payload, err := fb.Read(br)
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
	typ, payload, err := cc.Buf.Read(cc.BR)
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
