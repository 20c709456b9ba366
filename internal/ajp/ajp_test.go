package ajp

import (
	"bytes"
	"fmt"
	"net/url"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/httpd"
)

func TestRequestEncodingRoundtrip(t *testing.T) {
	in := &httpd.Request{
		Method: "POST",
		Path:   "/tpcw/buyconfirm",
		Header: httpd.Header{},
		Query:  url.Values{"c_id": {"7"}, "x": {"a b"}},
		Body:   []byte("payload bytes"),
	}
	in.Header.Set("Cookie", "JSESSIONID=s1")
	in.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	out, err := decodeRequest(encodeRequest(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Method != in.Method || out.Path != in.Path {
		t.Fatalf("roundtrip: %+v", out)
	}
	if out.Query.Get("c_id") != "7" || out.Query.Get("x") != "a b" {
		t.Fatalf("query: %v", out.Query)
	}
	if out.Header.Get("Cookie") != "JSESSIONID=s1" {
		t.Fatalf("header: %v", out.Header)
	}
	if string(out.Body) != "payload bytes" {
		t.Fatalf("body: %q", out.Body)
	}
}

func TestResponseEncodingRoundtrip(t *testing.T) {
	in := httpd.NewResponse()
	in.Status = 404
	in.Header.Set("Set-Cookie", "JSESSIONID=abc; Path=/")
	in.WriteString("<html>no</html>")
	out, err := decodeResponse(encodeResponse(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != 404 || out.Header.Get("Set-Cookie") == "" || string(out.Body) != "<html>no</html>" {
		t.Fatalf("roundtrip: %+v", out)
	}
}

// Property: request bodies of arbitrary bytes survive the frame.
func TestRequestBodyRoundtripProperty(t *testing.T) {
	f := func(body []byte, path string) bool {
		in := &httpd.Request{Method: "GET", Path: "/" + path,
			Header: httpd.Header{}, Query: url.Values{}, Body: body}
		out, err := decodeRequest(encodeRequest(in))
		if err != nil {
			return false
		}
		return string(out.Body) == string(body) && out.Path == in.Path
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := decodeRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage request must error")
	}
	if _, err := decodeResponse([]byte{0xff}); err == nil {
		t.Fatal("garbage response must error")
	}
}

func TestConnectorListenerRoundtrip(t *testing.T) {
	l := NewListener(httpd.HandlerFunc(func(req *httpd.Request) (*httpd.Response, error) {
		r := httpd.NewResponse()
		fmt.Fprintf(r, "echo:%s?%s", req.Path, req.Query.Encode())
		return r, nil
	}))
	addr, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := NewConnector(addr.String(), 3)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &httpd.Request{Method: "GET", Path: fmt.Sprintf("/p%d", i),
				Header: httpd.Header{}, Query: url.Values{}}
			resp, err := c.ServeHTTP(req)
			if err != nil {
				t.Errorf("serve: %v", err)
				return
			}
			if want := fmt.Sprintf("echo:/p%d?", i); string(resp.Body) != want {
				t.Errorf("body %q, want %q", resp.Body, want)
			}
		}()
	}
	wg.Wait()
}

func TestConnectorHandlerErrorBecomes500(t *testing.T) {
	l := NewListener(httpd.HandlerFunc(func(*httpd.Request) (*httpd.Response, error) {
		return nil, fmt.Errorf("boom")
	}))
	addr, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := NewConnector(addr.String(), 1)
	defer c.Close()
	resp, err := c.ServeHTTP(&httpd.Request{Method: "GET", Path: "/",
		Header: httpd.Header{}, Query: url.Values{}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 {
		t.Fatalf("status %d, want 500", resp.Status)
	}
}

func TestConnectorReconnectsAfterListenerRestart(t *testing.T) {
	h := httpd.HandlerFunc(func(*httpd.Request) (*httpd.Response, error) {
		return httpd.NewResponse(), nil
	})
	l := NewListener(h)
	addr, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConnector(addr.String(), 2)
	defer c.Close()
	req := &httpd.Request{Method: "GET", Path: "/", Header: httpd.Header{}, Query: url.Values{}}
	if _, err := c.ServeHTTP(req); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := NewListener(h)
	if _, err := l2.Listen(addr.String()); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer l2.Close()
	if _, err := c.ServeHTTP(req); err != nil {
		t.Fatalf("retry after restart failed: %v", err)
	}
}

// FuzzAJPPayload: arbitrary bytes decoded as a request and as a response
// never panic, and whatever decodes survives encode → decode unchanged
// (its encoding is a fixed point). The seeds are well-formed payloads of
// both directions and a header count past maxHeaders.
func FuzzAJPPayload(f *testing.F) {
	req := &httpd.Request{Method: "POST", Path: "/tpcw/buyconfirm", Header: httpd.Header{},
		Query: url.Values{"c_id": {"7"}, "x": {"a b", "&"}}, Body: []byte("a=1&b=2")}
	req.Header.Set("cookie", "JSESSIONID=s1.a0")
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp := httpd.Error(404, "")
	resp.Header.Set("Set-Cookie", "JSESSIONID=s2; Path=/")
	f.Add(encodeRequest(req))
	f.Add(encodeResponse(resp))
	f.Add([]byte{0, 0, 0, 200, 0, 0, 0x03, 0xe9})
	f.Fuzz(func(t *testing.T, p []byte) {
		if req, err := decodeRequest(p); err == nil {
			enc := encodeRequest(req)
			again, err := decodeRequest(enc)
			if err != nil {
				t.Fatalf("re-encoded request %q: %v", enc, err)
			}
			if enc2 := encodeRequest(again); !bytes.Equal(enc, enc2) {
				t.Fatalf("request round trip moved: %q -> %q", enc, enc2)
			}
		}
		if resp, err := decodeResponse(p); err == nil {
			enc := encodeResponse(resp)
			again, err := decodeResponse(enc)
			if err != nil {
				t.Fatalf("re-encoded response %q: %v", enc, err)
			}
			if enc2 := encodeResponse(again); !bytes.Equal(enc, enc2) {
				t.Fatalf("response round trip moved: %q -> %q", enc, enc2)
			}
		}
	})
}
