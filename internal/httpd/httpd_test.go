package httpd_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpd"
	"repro/internal/httpd/httpclient"
)

func startServer(t *testing.T, h httpd.Handler) string {
	t.Helper()
	srv := httpd.NewServer(h, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

func echoHandler(req *httpd.Request) (*httpd.Response, error) {
	resp := httpd.NewResponse()
	resp.Header.Set("Content-Type", "text/plain")
	fmt.Fprintf(resp, "method=%s path=%s q=%s body=%s",
		req.Method, req.Path, req.Query.Get("x"), req.Body)
	return resp, nil
}

func TestGetRoundtrip(t *testing.T) {
	addr := startServer(t, httpd.HandlerFunc(echoHandler))
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()
	resp, err := c.Get("/hello?x=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status %d", resp.Status)
	}
	if got := string(resp.Body); got != "method=GET path=/hello q=1 body=" {
		t.Fatalf("body %q", got)
	}
}

func TestPostForm(t *testing.T) {
	addr := startServer(t, httpd.HandlerFunc(func(req *httpd.Request) (*httpd.Response, error) {
		resp := httpd.NewResponse()
		f := req.Form()
		fmt.Fprintf(resp, "a=%s b=%s", f.Get("a"), f.Get("b"))
		return resp, nil
	}))
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()
	resp, err := c.PostForm("/submit?a=1", "b=two")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(resp.Body); got != "a=1 b=two" {
		t.Fatalf("form: %q", got)
	}
}

func TestKeepAliveReuse(t *testing.T) {
	var mu sync.Mutex
	remotes := make(map[string]int)
	addr := startServer(t, httpd.HandlerFunc(func(req *httpd.Request) (*httpd.Response, error) {
		mu.Lock()
		remotes[req.RemoteAddr]++
		mu.Unlock()
		return httpd.NewResponse(), nil
	}))
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Get("/"); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(remotes) != 1 {
		t.Fatalf("used %d connections, want 1 (keep-alive)", len(remotes))
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startServer(t, httpd.HandlerFunc(echoHandler))
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := httpclient.New(addr, 5*time.Second)
			defer c.Close()
			for j := 0; j < 10; j++ {
				resp, err := c.Get(fmt.Sprintf("/p%d?x=%d", i, j))
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				want := fmt.Sprintf("q=%d", j)
				if !strings.Contains(string(resp.Body), want) {
					t.Errorf("body %q missing %q", resp.Body, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMuxRouting(t *testing.T) {
	mux := httpd.NewMux()
	mux.HandleFunc("/exact", func(*httpd.Request) (*httpd.Response, error) {
		r := httpd.NewResponse()
		r.WriteString("exact")
		return r, nil
	})
	mux.HandleFunc("/images/", func(req *httpd.Request) (*httpd.Response, error) {
		r := httpd.NewResponse()
		r.WriteString("img:" + req.Path)
		return r, nil
	})
	mux.HandleFunc("/images/special/", func(*httpd.Request) (*httpd.Response, error) {
		r := httpd.NewResponse()
		r.WriteString("special")
		return r, nil
	})
	addr := startServer(t, mux)
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()

	cases := []struct{ path, want string }{
		{"/exact", "exact"},
		{"/images/a.gif", "img:/images/a.gif"},
		{"/images/special/b.gif", "special"}, // longest prefix wins
	}
	for _, tc := range cases {
		resp, err := c.Get(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != tc.want {
			t.Errorf("%s -> %q, want %q", tc.path, resp.Body, tc.want)
		}
	}
	resp, _ := c.Get("/nope")
	if resp.Status != 404 {
		t.Fatalf("unrouted path: %d", resp.Status)
	}
}

func TestStaticSet(t *testing.T) {
	static := httpd.NewStaticSet()
	static.Add("/img/logo.gif", []byte("GIF89a..."), "")
	addr := startServer(t, static)
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()
	resp, err := c.Get("/img/logo.gif")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Type") != "image/gif" {
		t.Fatalf("content type %q", resp.Header.Get("Content-Type"))
	}
	if string(resp.Body) != "GIF89a..." {
		t.Fatalf("body %q", resp.Body)
	}
	if resp, _ := c.Get("/img/missing.gif"); resp.Status != 404 {
		t.Fatalf("missing file: %d", resp.Status)
	}
	if static.Len() != 1 || static.TotalBytes() != 9 {
		t.Fatalf("set accounting: %d/%d", static.Len(), static.TotalBytes())
	}
}

func TestHandlerErrorBecomes500(t *testing.T) {
	addr := startServer(t, httpd.HandlerFunc(func(*httpd.Request) (*httpd.Response, error) {
		return nil, fmt.Errorf("boom")
	}))
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()
	resp, err := c.Get("/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 {
		t.Fatalf("status %d, want 500", resp.Status)
	}
}

func TestLargeBody(t *testing.T) {
	addr := startServer(t, httpd.HandlerFunc(func(req *httpd.Request) (*httpd.Response, error) {
		resp := httpd.NewResponse()
		resp.Body = make([]byte, 256<<10)
		for i := range resp.Body {
			resp.Body[i] = byte(i)
		}
		return resp, nil
	}))
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()
	resp, err := c.Get("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) != 256<<10 {
		t.Fatalf("body %d bytes", len(resp.Body))
	}
	for i, b := range resp.Body {
		if b != byte(i) {
			t.Fatalf("corrupt byte at %d", i)
		}
	}
}

func TestHeaderCanonicalization(t *testing.T) {
	h := httpd.Header{}
	h.Set("content-TYPE", "x")
	if h.Get("Content-Type") != "x" {
		t.Fatal("case-insensitive get")
	}
	h.Del("CONTENT-type")
	if h.Get("content-type") != "" {
		t.Fatal("delete")
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv := httpd.NewServer(httpd.HandlerFunc(echoHandler), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := httpclient.New(addr.String(), 5*time.Second)
	defer c.Close()
	if _, err := c.Get("/a"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2 := httpd.NewServer(httpd.HandlerFunc(echoHandler), nil)
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := c.Get("/b"); err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
}

func TestHEADOmitsBody(t *testing.T) {
	addr := startServer(t, httpd.HandlerFunc(func(*httpd.Request) (*httpd.Response, error) {
		r := httpd.NewResponse()
		r.WriteString("data")
		return r, nil
	}))
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()
	resp, err := c.Do("HEAD", "/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) != 0 {
		t.Fatalf("HEAD returned body %q", resp.Body)
	}
	if resp.Header.Get("Content-Length") != "4" {
		t.Fatalf("content-length %q", resp.Header.Get("Content-Length"))
	}
	// Connection must remain usable after HEAD.
	if _, err := c.Get("/"); err != nil {
		t.Fatal(err)
	}
}
