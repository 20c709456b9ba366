package lb

import (
	"fmt"
	"net/url"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpd"
	"repro/internal/telemetry"
)

// countingApp is a stub app tier: every render bumps a counter into the
// body, and optionally stamps the given epoch header.
type countingApp struct {
	renders atomic.Int64
	epoch   atomic.Uint64 // stamped as X-Content-Epoch when nonzero
	status  int
	cookie  string // Set-Cookie value to attach, if any
}

func (a *countingApp) ServeHTTP(req *httpd.Request) (*httpd.Response, error) {
	n := a.renders.Add(1)
	status := a.status
	if status == 0 {
		status = 200
	}
	resp := &httpd.Response{
		Status: status,
		Header: httpd.Header{},
		Body:   []byte(fmt.Sprintf("render %d of %s", n, req.Path)),
	}
	if e := a.epoch.Load(); e != 0 {
		resp.Header.Set(ContentEpochHeader, fmt.Sprint(e))
	}
	if a.cookie != "" {
		resp.Header.Set("Set-Cookie", a.cookie)
	}
	return resp, nil
}

func getPage(t *testing.T, p *PageCache, path string, hdr httpd.Header) *httpd.Response {
	t.Helper()
	if hdr == nil {
		hdr = httpd.Header{}
	}
	resp, err := p.ServeHTTP(&httpd.Request{Method: "GET", Path: path, Header: hdr})
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

// TestPageCacheHit: the second anonymous GET of a page replays the stored
// response without touching the app tier, marked X-Cache: HIT.
func TestPageCacheHit(t *testing.T) {
	app := &countingApp{}
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 8, TTL: time.Minute})

	first := getPage(t, p, "/tpcw/home", nil)
	second := getPage(t, p, "/tpcw/home", nil)
	if app.renders.Load() != 1 {
		t.Fatalf("app rendered %d times, want 1", app.renders.Load())
	}
	if string(second.Body) != string(first.Body) {
		t.Fatalf("cached body %q != original %q", second.Body, first.Body)
	}
	if second.Header.Get("X-Cache") != "HIT" {
		t.Fatal("cache hit not marked X-Cache: HIT")
	}
	if first.Header.Get("X-Cache") == "HIT" {
		t.Fatal("fill response wrongly marked as a hit")
	}
	// Distinct pages are distinct entries.
	getPage(t, p, "/tpcw/search", nil)
	if app.renders.Load() != 2 {
		t.Fatalf("app rendered %d times after a different page, want 2", app.renders.Load())
	}
	if st, n := p.Stats(), p.pages.Len(); st.PageCacheHits != 1 || st.PageCacheMisses != 2 || n != 2 {
		t.Fatalf("stats = %+v, %d entries, want 1 hit / 2 misses / 2 entries", st, n)
	}
}

// TestPageCacheSessionBypass: a request carrying the session cookie must
// not be served from — or fill — the cache.
func TestPageCacheSessionBypass(t *testing.T) {
	app := &countingApp{}
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 8, TTL: time.Minute})

	hdr := httpd.Header{}
	hdr.Set("Cookie", "JSESSIONID=abc.a0")
	p.ServeHTTP(&httpd.Request{Method: "GET", Path: "/tpcw/cart", Header: hdr})
	p.ServeHTTP(&httpd.Request{Method: "GET", Path: "/tpcw/cart", Header: hdr})
	if app.renders.Load() != 2 {
		t.Fatalf("session requests rendered %d times, want 2 (no caching)", app.renders.Load())
	}
	if st, n := p.Stats(), p.pages.Len(); st.PageCacheBypasses != 2 || n != 0 {
		t.Fatalf("stats = %+v, %d entries, want 2 bypasses / 0 entries", st, n)
	}
	// An anonymous GET after the session traffic still misses: nothing
	// was stored for it.
	getPage(t, p, "/tpcw/cart", nil)
	if app.renders.Load() != 3 {
		t.Fatal("anonymous GET was served a session-rendered page")
	}
}

// TestPageCachePOSTBypass: non-GET requests are never cached.
func TestPageCachePOSTBypass(t *testing.T) {
	app := &countingApp{}
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 8, TTL: time.Minute})
	req := &httpd.Request{Method: "POST", Path: "/tpcw/buy", Header: httpd.Header{}}
	p.ServeHTTP(req)
	p.ServeHTTP(req)
	if app.renders.Load() != 2 {
		t.Fatalf("POSTs rendered %d times, want 2", app.renders.Load())
	}
	if st, n := p.Stats(), p.pages.Len(); st.PageCacheBypasses != 2 || n != 0 {
		t.Fatalf("stats = %+v, %d entries, want 2 bypasses / 0 entries", st, n)
	}
}

// TestPageCacheSetCookieNotStored: a response that establishes a session
// must never be replayed to another client.
func TestPageCacheSetCookieNotStored(t *testing.T) {
	app := &countingApp{cookie: "JSESSIONID=new.a0"}
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 8, TTL: time.Minute})
	getPage(t, p, "/tpcw/home", nil)
	getPage(t, p, "/tpcw/home", nil)
	if app.renders.Load() != 2 {
		t.Fatal("Set-Cookie response was cached")
	}
}

// TestPageCacheErrorNotStored: non-200 responses are not cached.
func TestPageCacheErrorNotStored(t *testing.T) {
	app := &countingApp{status: 500}
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 8, TTL: time.Minute})
	getPage(t, p, "/tpcw/home", nil)
	getPage(t, p, "/tpcw/home", nil)
	if app.renders.Load() != 2 {
		t.Fatal("error response was cached")
	}
}

// TestPageCacheEpochInvalidation: advancing the content epoch — via the
// in-process reader or the response header — invalidates every entry.
func TestPageCacheEpochInvalidation(t *testing.T) {
	var epoch atomic.Uint64
	app := &countingApp{}
	p := NewPageCache(app, PageCacheConfig{
		MaxEntries: 8, TTL: time.Minute,
		Epoch: epoch.Load,
	})

	getPage(t, p, "/tpcw/best", nil)
	getPage(t, p, "/tpcw/best", nil)
	if app.renders.Load() != 1 {
		t.Fatal("no hit before the epoch moved")
	}

	epoch.Add(1) // a commit landed somewhere in the database tier
	resp := getPage(t, p, "/tpcw/best", nil)
	if app.renders.Load() != 2 {
		t.Fatal("stale page served after the epoch moved")
	}
	if resp.Header.Get("X-Cache") == "HIT" {
		t.Fatal("post-commit fill marked as a hit")
	}
	if st := p.Stats(); st.PageCacheInvalidations != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation", st)
	}
	// The refilled entry is fresh under the new epoch.
	getPage(t, p, "/tpcw/best", nil)
	if app.renders.Load() != 2 {
		t.Fatal("refilled entry did not hit")
	}
}

// TestPageCacheHeaderEpoch: in a cross-process deployment the epoch
// arrives only as the X-Content-Epoch response header; a response stamped
// with a newer epoch invalidates pages cached under the older one.
func TestPageCacheHeaderEpoch(t *testing.T) {
	app := &countingApp{}
	app.epoch.Store(1)
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 8, TTL: time.Minute})

	getPage(t, p, "/tpcw/home", nil)
	getPage(t, p, "/tpcw/home", nil)
	if app.renders.Load() != 1 {
		t.Fatal("no hit under a steady header epoch")
	}

	// A write committed: the app tier's next response carries epoch 2.
	// Session traffic (a bypass) is enough to deliver the signal.
	app.epoch.Store(2)
	hdr := httpd.Header{}
	hdr.Set("Cookie", "JSESSIONID=buyer.a0")
	p.ServeHTTP(&httpd.Request{Method: "GET", Path: "/tpcw/cart", Header: hdr})

	getPage(t, p, "/tpcw/home", nil)
	if app.renders.Load() != 3 {
		t.Fatal("page cached at epoch 1 served after epoch 2 was observed")
	}
}

// TestPageCacheTTL: with no epoch signal at all, the TTL backstop expires
// entries.
func TestPageCacheTTL(t *testing.T) {
	app := &countingApp{}
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 8, TTL: 10 * time.Millisecond})
	getPage(t, p, "/tpcw/home", nil)
	getPage(t, p, "/tpcw/home", nil)
	if app.renders.Load() != 1 {
		t.Fatal("no hit inside the TTL")
	}
	time.Sleep(20 * time.Millisecond)
	getPage(t, p, "/tpcw/home", nil)
	if app.renders.Load() != 2 {
		t.Fatal("expired entry still served")
	}
}

// TestPageCacheLRUEviction: the cache is bounded; filling past MaxEntries
// evicts the least recently used page.
func TestPageCacheLRUEviction(t *testing.T) {
	app := &countingApp{}
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 2, TTL: time.Minute})
	getPage(t, p, "/a", nil)
	getPage(t, p, "/b", nil)
	getPage(t, p, "/a", nil) // touch /a: /b becomes LRU
	getPage(t, p, "/c", nil) // evicts /b
	if n := p.pages.Len(); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	renders := app.renders.Load()
	getPage(t, p, "/a", nil)
	if app.renders.Load() != renders {
		t.Fatal("/a was evicted instead of LRU /b")
	}
	getPage(t, p, "/b", nil)
	if app.renders.Load() != renders+1 {
		t.Fatal("/b survived eviction")
	}
}

// TestPageCacheKeyCanonicalization: the cache key is the parsed path plus
// the query re-encoded in sorted order, never the raw request target —
// "?b=2&a=1" and "?a=1&b=2" are the same page and must share one entry.
func TestPageCacheKeyCanonicalization(t *testing.T) {
	app := &countingApp{}
	p := NewPageCache(app, PageCacheConfig{MaxEntries: 8, TTL: time.Minute})
	q := url.Values{"a": {"1"}, "b": {"2"}}
	for i, raw := range []string{"/tpcw/search?b=2&a=1", "/tpcw/search?a=1&b=2", "/tpcw/search?b=%32&a=1"} {
		resp, err := p.ServeHTTP(&httpd.Request{
			Method:  "GET",
			Path:    "/tpcw/search",
			RawPath: raw,
			Query:   q,
			Header:  httpd.Header{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && resp.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("request %d (%s) missed the cache", i, raw)
		}
	}
	if n := app.renders.Load(); n != 1 {
		t.Fatalf("app rendered %d times, want 1 (cache fragmented by raw target)", n)
	}
	// The path is decoded, so "/tpcw/search%3Fa=1&b=2" arrives as the path
	// "/tpcw/search?a=1&b=2" with no query, and "%253F" as a literal "%3F":
	// each a page of its own, not a hit.
	for i, raw := range []string{"/tpcw/search%3Fa=1&b=2", "/tpcw/search%253Fa=1&b=2"} {
		path, _ := url.PathUnescape(raw)
		resp, err := p.ServeHTTP(&httpd.Request{
			Method:  "GET",
			Path:    path,
			RawPath: raw,
			Query:   url.Values{},
			Header:  httpd.Header{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("X-Cache") == "HIT" || app.renders.Load() != int64(i+2) {
			t.Fatalf("GET %s aliased another page", raw)
		}
	}
}

// TestPageCacheCells: every PageCacheStats counter has exactly one
// same-named cell, and every cell names a counter (telemetry.Load's rule).
func TestPageCacheCells(t *testing.T) {
	stats := reflect.TypeOf(telemetry.PageCacheStats{})
	if err := telemetry.CheckCells(stats, stats, reflect.TypeOf(pageCells{})); err != nil {
		t.Fatal(err)
	}
}

// TestBackendCells: every per-backend routing counter has exactly one
// same-named cell on the balancer's backend, and every cell names one.
func TestBackendCells(t *testing.T) {
	err := telemetry.CheckCells(reflect.TypeOf(telemetry.AppBackend{}), reflect.TypeOf(telemetry.BackendRouting{}),
		reflect.TypeOf(backendCells{}))
	if err != nil {
		t.Fatal(err)
	}
}
