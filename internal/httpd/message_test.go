package httpd

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadMessage: arbitrary bytes through the one message reader, as a
// request and as a response (with and without HEAD), never panic, and what
// is accepted keeps within the limits: no header name or value longer than
// a line, at most maxHeaderLines headers and at most maxBodyBytes of body.
// An accepted response written back out by the server's writer reads back
// with the same status and body, unless the headers the writer adds (up to
// four) took it past maxHeaderLines. A request and a response one past each
// limit are refused (checked once, not fuzzed: inputs that large make the
// fuzzer's minimization crawl).
func FuzzReadMessage(f *testing.F) {
	f.Add([]byte("GET /tpcw/home?c_id=1 HTTP/1.1\r\nHost: x\r\nCookie: JSESSIONID=s1.a0\r\n\r\n"))
	f.Add([]byte("POST /submit HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 7\r\n\r\na=1&b=2"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nSet-Cookie: JSESSIONID=s2; Path=/\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 302 Found\nlocation: /x\ncontent-length: 0\n\n"))
	var many strings.Builder
	for i := 0; i <= maxHeaderLines; i++ {
		fmt.Fprintf(&many, "X-%d: y\r\n", i)
	}
	for _, over := range []struct{ req, resp string }{
		{"GET /" + strings.Repeat("a", maxLineBytes) + " HTTP/1.1\r\n\r\n", "HTTP/1.1 200 " + strings.Repeat("a", maxLineBytes) + "\r\n\r\n"},
		{"GET / HTTP/1.1\r\n" + many.String() + "\r\n", "HTTP/1.1 200 OK\r\n" + many.String() + "\r\n"},
		{fmt.Sprintf("POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n", maxBodyBytes+1), fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", maxBodyBytes+1)},
	} {
		if _, err := readRequest(bufio.NewReader(strings.NewReader(over.req))); err == nil {
			f.Fatalf("request over a limit accepted: %.60q", over.req)
		}
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(over.resp)), false); err == nil {
			f.Fatalf("response over a limit accepted: %.60q", over.resp)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := func() *bufio.Reader { return bufio.NewReader(bytes.NewReader(data)) }
		if req, err := readRequest(in()); err == nil {
			withinLimits(t, req.Header, req.Body)
		}
		for _, head := range []bool{false, true} {
			resp, err := ReadResponse(in(), head)
			if err != nil {
				continue
			}
			withinLimits(t, resp.Header, resp.Body)
			if head && resp.Body != nil {
				t.Fatalf("HEAD response read a body of %d bytes", len(resp.Body))
			}
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			if err := writeResponse(w, resp, "HTTP/1.1", false, "close"); err != nil {
				t.Fatal(err)
			}
			w.Flush()
			if len(resp.Header) > maxHeaderLines {
				continue // the writer's own headers took it past the limit
			}
			again, err := ReadResponse(bufio.NewReader(&out), false)
			if err != nil {
				t.Fatalf("rewritten response %q: %v", out.Bytes(), err)
			}
			if again.Status != resp.Status || !bytes.Equal(again.Body, resp.Body) {
				t.Fatalf("rewritten response read back as %d %q, want %d %q", again.Status, again.Body, resp.Status, resp.Body)
			}
		}
	})
}

func withinLimits(t *testing.T, h Header, body []byte) {
	t.Helper()
	if len(h) > maxHeaderLines {
		t.Fatalf("accepted %d headers", len(h))
	}
	for k, v := range h {
		if len(k) > maxLineBytes || len(v) > maxLineBytes {
			t.Fatalf("accepted a header of %d+%d bytes", len(k), len(v))
		}
	}
	if len(body) > maxBodyBytes {
		t.Fatalf("accepted a body of %d bytes", len(body))
	}
}
