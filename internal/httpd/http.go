// Package httpd is a small HTTP/1.1 server built directly on net.Conn,
// standing in for the Apache 1.3 web server of the paper's testbed. It
// serves static content itself and dispatches dynamic requests to a
// pluggable Handler — either a servlet container's handler called in
// process (the mod_php analog: dispatch is a function call) or a connector
// that forwards to a separate application container over the AJP-like
// protocol (internal/ajp).
//
// Supported protocol surface: GET/POST/HEAD, request headers, query strings,
// Content-Length bodies, persistent connections with Connection: close
// opt-out, and 1.0-style single-shot connections. Every HTTP message the
// stack reads — a request here, a response in the client emulator
// (internal/httpd/httpclient, through ReadResponse) — goes through one
// reader under one set of limits.
package httpd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// The limits of one message, requests and responses alike: a 16 KiB line
// (start line or header), maxHeaderLines header lines and a Content-Length
// body of at most maxBodyBytes, as Apache's LimitRequestLine,
// LimitRequestFields and LimitRequestBody bound requests.
const (
	maxLineBytes   = 16 << 10
	maxHeaderLines = 100
	maxBodyBytes   = 4 << 20
)

// SessionCookie names the cookie carrying the session id: the servlet
// tier sets it, the load balancer pins on its route suffix and the page
// cache bypasses requests that carry it.
const SessionCookie = "JSESSIONID"

// CookieValue extracts one cookie's value from a Cookie header — the
// shared parser under the servlet tier's session lookup and the load
// balancer's affinity routing (they must agree on cookie parsing, or
// affinity silently breaks).
func CookieValue(header, name string) string {
	for _, part := range strings.Split(header, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if ok && k == name {
			return v
		}
	}
	return ""
}

// Request is one parsed HTTP request.
type Request struct {
	Method  string
	Path    string // decoded path, query stripped
	RawPath string // as received
	Proto   string
	Header  Header
	Query   url.Values
	Body    []byte

	// RemoteAddr is the client address, for logs.
	RemoteAddr string
}

// Form returns POST form values (application/x-www-form-urlencoded) merged
// over the query string, query first.
func (r *Request) Form() url.Values {
	v := url.Values{}
	for k, vals := range r.Query {
		v[k] = append(v[k], vals...)
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-www-form-urlencoded") {
		if parsed, err := url.ParseQuery(string(r.Body)); err == nil {
			for k, vals := range parsed {
				v[k] = append(v[k], vals...)
			}
		}
	}
	return v
}

// Header is a case-insensitive header map with deterministic write order.
type Header map[string]string

// Get returns the header value ("" when absent).
func (h Header) Get(key string) string { return h[canonical(key)] }

// Set stores a header value.
func (h Header) Set(key, value string) { h[canonical(key)] = value }

// Del removes a header.
func (h Header) Del(key string) { delete(h, canonical(key)) }

// Keys returns header names sorted for deterministic serialization.
func (h Header) Keys() []string {
	ks := make([]string, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// canonical normalizes a header name: "content-type" -> "Content-Type". A
// name already in that form, as every name the stack writes is, comes back
// as it is, without a copy.
func canonical(key string) string {
	var b []byte
	upper := true
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case upper && 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		case !upper && 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		if c != key[i] && b == nil {
			b = []byte(key)
		}
		if b != nil {
			b[i] = c
		}
		upper = key[i] == '-'
	}
	if b == nil {
		return key
	}
	return string(b)
}

// Response is a buffered HTTP response under construction.
type Response struct {
	Status int
	Header Header
	Body   []byte
}

// NewResponse returns an empty 200 response.
func NewResponse() *Response {
	return &Response{Status: 200, Header: Header{}}
}

// WriteString appends body text.
func (r *Response) WriteString(s string) { r.Body = append(r.Body, s...) }

// Write appends body bytes, satisfying io.Writer.
func (r *Response) Write(p []byte) (int, error) {
	r.Body = append(r.Body, p...)
	return len(p), nil
}

// readMessage reads one HTTP/1.x message from br: the start line, handed to
// start before anything else is read, the header block and, unless head,
// the Content-Length body. It is the one reader of both ends of the web
// tier, so requests and responses share its limits.
func readMessage(br *bufio.Reader, head bool, start func(line string) error) (Header, []byte, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, nil, err
	}
	if err := start(line); err != nil {
		return nil, nil, err
	}
	h := Header{}
	for i := 0; ; i++ {
		if i > maxHeaderLines {
			return nil, nil, errors.New("httpd: too many header lines")
		}
		line, err := readLine(br)
		if err != nil {
			return nil, nil, err
		}
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, nil, fmt.Errorf("httpd: malformed header %q", line)
		}
		h.Set(strings.TrimSpace(name), strings.TrimSpace(value))
	}
	cl := h.Get("Content-Length")
	if head || cl == "" {
		return h, nil, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return nil, nil, fmt.Errorf("httpd: bad Content-Length %q", cl)
	}
	if n > maxBodyBytes {
		return nil, nil, fmt.Errorf("httpd: body of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, nil, fmt.Errorf("httpd: short body: %w", err)
	}
	return h, body, nil
}

// readLine reads a CRLF- (or LF-) terminated line without the terminator.
func readLine(br *bufio.Reader) (string, error) {
	var b strings.Builder
	for {
		chunk, isPrefix, err := br.ReadLine()
		if err != nil {
			return "", err
		}
		b.Write(chunk)
		if b.Len() > maxLineBytes {
			return "", errors.New("httpd: line too long")
		}
		if !isPrefix {
			return b.String(), nil
		}
	}
}

// readRequest parses one request from br.
func readRequest(br *bufio.Reader) (req *Request, err error) {
	req = &Request{}
	if req.Header, req.Body, err = readMessage(br, false, req.parseLine); err != nil {
		return nil, err
	}
	return req, nil
}

// parseLine parses the request line: method, path with its query, protocol.
func (r *Request) parseLine(line string) error {
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 {
		return fmt.Errorf("httpd: malformed request line %q", line)
	}
	method, rawPath, proto := parts[0], parts[1], parts[2]
	switch method {
	case "GET", "POST", "HEAD":
	default:
		return fmt.Errorf("httpd: unsupported method %q", method)
	}
	if proto != "HTTP/1.1" && proto != "HTTP/1.0" {
		return fmt.Errorf("httpd: unsupported protocol %q", proto)
	}
	r.Method, r.RawPath, r.Proto = method, rawPath, proto

	// Split query, decode path.
	pathPart, queryPart, _ := strings.Cut(rawPath, "?")
	decoded, err := url.PathUnescape(pathPart)
	if err != nil {
		return fmt.Errorf("httpd: bad path %q: %w", pathPart, err)
	}
	r.Path = decoded
	if queryPart == "" {
		r.Query = url.Values{}
	} else if r.Query, err = url.ParseQuery(queryPart); err != nil {
		return fmt.Errorf("httpd: bad query %q: %w", queryPart, err)
	}
	return nil
}

// ReadResponse parses one response from br, the client's side of
// readRequest. head says the request was a HEAD, whose response has no
// body whatever its Content-Length says.
func ReadResponse(br *bufio.Reader, head bool) (resp *Response, err error) {
	resp = &Response{}
	resp.Header, resp.Body, err = readMessage(br, head, func(line string) error {
		parts := strings.SplitN(line, " ", 3)
		if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
			return fmt.Errorf("httpd: malformed status line %q", line)
		}
		code, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("httpd: bad status code in %q", line)
		}
		resp.Status = code
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Handler generates responses for requests.
type Handler interface {
	ServeHTTP(req *Request) (*Response, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) (*Response, error)

// ServeHTTP calls f.
func (f HandlerFunc) ServeHTTP(req *Request) (*Response, error) { return f(req) }

// statusText maps the codes the stack produces.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 302:
		return "Found"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 413:
		return "Payload Too Large"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return fmt.Sprintf("Status %d", code)
	}
}

// Error builds a plain-text error response.
func Error(code int, msg string) *Response {
	r := NewResponse()
	r.Status = code
	r.Header.Set("Content-Type", "text/plain; charset=utf-8")
	if msg == "" {
		msg = statusText(code)
	}
	r.WriteString(msg + "\n")
	return r
}
