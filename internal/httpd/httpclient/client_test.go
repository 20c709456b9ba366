package httpclient

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// rawServer speaks scripted HTTP for client-side edge cases.
func rawServer(t *testing.T, handler func(conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(conn, bufio.NewReader(conn))
		}
	}()
	return ln.Addr().String()
}

// readRawRequest consumes one request including any body.
func readRawRequest(br *bufio.Reader) bool {
	var contentLength int
	first := true
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return false
		}
		line = strings.TrimRight(line, "\r\n")
		if first && line == "" {
			continue
		}
		first = false
		if line == "" {
			break
		}
		if strings.HasPrefix(strings.ToLower(line), "content-length:") {
			fmt.Sscanf(strings.TrimSpace(line[len("content-length:"):]), "%d", &contentLength)
		}
	}
	if contentLength > 0 {
		buf := make([]byte, contentLength)
		for read := 0; read < contentLength; {
			n, err := br.Read(buf[read:])
			if err != nil {
				return false
			}
			read += n
		}
	}
	return true
}

func TestGetParsesStatusHeadersBody(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		defer conn.Close()
		if !readRawRequest(br) {
			return
		}
		fmt.Fprintf(conn, "HTTP/1.1 201 Created\r\nX-Custom: Yes\r\nContent-Length: 5\r\n\r\nhello")
	})
	c := New(addr, 2*time.Second)
	defer c.Close()
	resp, err := c.Get("/x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 201 || resp.Header.Get("X-Custom") != "Yes" || string(resp.Body) != "hello" {
		t.Fatalf("resp: %+v %q", resp, resp.Body)
	}
}

func TestConnectionCloseHonored(t *testing.T) {
	var conns atomic.Int64
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		conns.Add(1)
		defer conn.Close()
		if !readRawRequest(br) {
			return
		}
		fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok")
	})
	c := New(addr, 2*time.Second)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Get("/"); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 3 {
		t.Fatalf("client reused a closed connection (%d conns)", n)
	}
}

func TestStaleKeepAliveRetry(t *testing.T) {
	// Server closes the connection after one response without announcing
	// it; the client must transparently retry on a fresh connection.
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		defer conn.Close()
		if !readRawRequest(br) {
			return
		}
		fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na")
		// silently close despite implied keep-alive
	})
	c := New(addr, 2*time.Second)
	defer c.Close()
	if _, err := c.Get("/1"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Get("/2")
	if err != nil {
		t.Fatalf("stale-connection retry failed: %v", err)
	}
	if string(resp.Body) != "a" {
		t.Fatalf("body %q", resp.Body)
	}
}

// TestMalformedStatusLine: a response the server's reader refuses is an
// error. That covers a status line that is not HTTP and a Content-Length
// past the body limit the server holds requests to, which is refused before
// a buffer of that size is allocated.
func TestMalformedStatusLine(t *testing.T) {
	const overLimit = 4<<20 + 1 // one byte past httpd's body limit
	for _, tc := range []struct{ name, resp, want string }{
		{"status line", "TOTALLY/NOT HTTP\r\n\r\n", "malformed status line"},
		{"body over limit", fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", overLimit), "exceeds limit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
				defer conn.Close()
				if !readRawRequest(br) {
					return
				}
				fmt.Fprint(conn, tc.resp)
			})
			c := New(addr, 2*time.Second)
			defer c.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := c.Get("/")
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n >= overLimit {
				t.Fatalf("refusing the response allocated %d bytes", n)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestTimeout(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		defer conn.Close()
		readRawRequest(br)
		time.Sleep(2 * time.Second) // never respond in time
	})
	c := New(addr, 150*time.Millisecond)
	defer c.Close()
	start := time.Now()
	if _, err := c.Get("/"); err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout not enforced")
	}
}

func TestPostFormSendsBody(t *testing.T) {
	got := make(chan string, 1)
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		defer conn.Close()
		var cl int
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\r\n")
			if line == "" {
				break
			}
			if strings.HasPrefix(strings.ToLower(line), "content-length:") {
				fmt.Sscanf(strings.TrimSpace(line[len("content-length:"):]), "%d", &cl)
			}
		}
		body := make([]byte, cl)
		for read := 0; read < cl; {
			n, err := br.Read(body[read:])
			if err != nil {
				return
			}
			read += n
		}
		got <- string(body)
		fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
	})
	c := New(addr, 2*time.Second)
	defer c.Close()
	if _, err := c.PostForm("/submit", "a=1&b=2"); err != nil {
		t.Fatal(err)
	}
	select {
	case body := <-got:
		if body != "a=1&b=2" {
			t.Fatalf("body %q", body)
		}
	case <-time.After(time.Second):
		t.Fatal("server never saw the body")
	}
}
