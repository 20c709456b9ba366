// Package httpclient is a persistent-connection HTTP/1.1 client for the
// client-browser emulator: the paper's emulated browsers open one
// keep-alive connection per session and issue every interaction (and its
// embedded image fetches) over it. It writes requests; it reads responses
// with the web server's own reader (httpd.ReadResponse), under the same
// limits the server puts on requests.
package httpclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/httpd"
)

// Client is a single-connection HTTP client. Not safe for concurrent use;
// each emulated browser session owns one, matching the paper's model. It
// keeps a browser-style cookie jar: cookies the server sets are echoed on
// every subsequent request, which is what carries the JSESSIONID session
// (and its load-balancer affinity route) across interactions.
type Client struct {
	addr    string
	timeout time.Duration
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	jar     map[string]string
	// armedUntil amortizes SetDeadline: fast back-to-back requests reuse
	// the armed deadline while >3/4 of the timeout window remains.
	armedUntil time.Time
}

// New creates a client for addr ("host:port"). timeout bounds each request
// round trip (zero: none).
func New(addr string, timeout time.Duration) *Client {
	return &Client{addr: addr, timeout: timeout}
}

// connect (re)establishes the persistent connection. The round-trip
// timeout bounds the dial too — a stalled accept queue should fail like
// a stalled response, not hang the emulated browser.
func (c *Client) connect() error {
	c.closeConn()
	var conn net.Conn
	var err error
	if c.timeout > 0 {
		conn, err = net.DialTimeout("tcp", c.addr, c.timeout)
	} else {
		conn, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return fmt.Errorf("httpclient: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 32<<10)
	c.bw = bufio.NewWriterSize(conn, 16<<10)
	c.armedUntil = time.Time{} // fresh conn has no deadline armed yet
	return nil
}

func (c *Client) closeConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close shuts the connection down.
func (c *Client) Close() { c.closeConn() }

// Get issues a GET for path (which may include a query string).
func (c *Client) Get(path string) (*httpd.Response, error) {
	return c.Do("GET", path, "", nil)
}

// PostForm issues an application/x-www-form-urlencoded POST.
func (c *Client) PostForm(path, form string) (*httpd.Response, error) {
	return c.Do("POST", path, "application/x-www-form-urlencoded", []byte(form))
}

// Do issues one request, transparently reconnecting once if the persistent
// connection went stale (server idle-closed it between interactions).
func (c *Client) Do(method, path, contentType string, body []byte) (*httpd.Response, error) {
	fresh := false
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return nil, err
		}
		fresh = true
	}
	resp, err := c.attempt(method, path, contentType, body)
	if err != nil && !fresh && retriable(err) {
		if err := c.connect(); err != nil {
			return nil, err
		}
		resp, err = c.attempt(method, path, contentType, body)
	}
	if err != nil {
		c.closeConn()
		return nil, err
	}
	if sc := resp.Header.Get("Set-Cookie"); sc != "" {
		// First attribute is the NAME=VALUE pair; the rest (Path, ...) are
		// directives this single-site client does not need.
		pair, _, _ := strings.Cut(sc, ";")
		if name, value, ok := strings.Cut(strings.TrimSpace(pair), "="); ok {
			if c.jar == nil {
				c.jar = make(map[string]string)
			}
			c.jar[name] = value
		}
	}
	if strings.EqualFold(resp.Header.Get("Connection"), "close") {
		c.closeConn()
	}
	return resp, nil
}

// Cookie returns the jar's value for name ("" when the server never set
// it) — tests use it to read the session's affinity route.
func (c *Client) Cookie(name string) string { return c.jar[name] }

// retriable reports errors that indicate a stale keep-alive connection.
func retriable(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || strings.Contains(err.Error(), "reset by peer") ||
		strings.Contains(err.Error(), "broken pipe")
}

func (c *Client) attempt(method, path, contentType string, body []byte) (*httpd.Response, error) {
	if c.timeout > 0 {
		if now := time.Now(); c.armedUntil.Sub(now) <= c.timeout-c.timeout/4 {
			c.armedUntil = now.Add(c.timeout)
			_ = c.conn.SetDeadline(c.armedUntil)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if len(c.jar) > 0 {
		b.WriteString("Cookie: ")
		first := true
		for name, value := range c.jar {
			if !first {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s=%s", name, value)
			first = false
		}
		b.WriteString("\r\n")
	}
	if len(body) > 0 {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
		if contentType != "" {
			fmt.Fprintf(&b, "Content-Type: %s\r\n", contentType)
		}
	}
	b.WriteString("\r\n")
	if _, err := io.WriteString(c.bw, b.String()); err != nil {
		return nil, err
	}
	if len(body) > 0 {
		if _, err := c.bw.Write(body); err != nil {
			return nil, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return httpd.ReadResponse(c.br, method == "HEAD")
}
