// Package httpd is a small HTTP/1.1 server built directly on net.Conn,
// standing in for the Apache 1.3 web server of the paper's testbed. It
// serves static content itself and dispatches dynamic requests to a
// pluggable Handler — either an in-process module (the mod_php analog, see
// internal/scriptmod) or a connector that forwards to a separate application
// container over the AJP-like protocol (internal/ajp).
//
// Supported protocol surface: GET/POST/HEAD, request headers, query strings,
// Content-Length bodies, persistent connections with Connection: close
// opt-out, and 1.0-style single-shot connections.
package httpd

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
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

// keys returns header names sorted for deterministic serialization.
func (h Header) keys() []string {
	ks := make([]string, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// canonical normalizes a header name: "content-type" -> "Content-Type".
func canonical(key string) string {
	b := []byte(key)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - ('a' - 'A')
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
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
