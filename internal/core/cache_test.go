package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/httpd"
	"repro/internal/httpd/httpclient"
	"repro/internal/telemetry"
)

// TestCachingTierEndToEnd drives real HTTP through both cache levels:
// the second anonymous GET of a browse page is an edge hit, a committed
// write invalidates it, and the page served afterwards shows the
// post-write state. The counters surface in /status under the tiers the
// glossary documents.
func TestCachingTierEndToEnd(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.Servlet, Benchmark: arch.Auction, Seed: 5,
		DBQueryCache: 256,
		PageCache:    128,
		PageCacheTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()

	get := func(path string) *httpd.Response {
		t.Helper()
		resp, err := c.Get(path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.Status != 200 {
			t.Fatalf("GET %s -> %d: %s", path, resp.Status, resp.Body)
		}
		return resp
	}

	// Anonymous browse page: second request is served by the page cache.
	first := get("/rubis/viewitem?item=4")
	second := get("/rubis/viewitem?item=4")
	if second.Header.Get("X-Cache") != "HIT" {
		t.Fatal("second anonymous GET not served from the page cache")
	}
	if string(second.Body) != string(first.Body) {
		t.Fatal("cached page differs from the rendered one")
	}

	// A committed write (a bid) invalidates the cached page: the next GET
	// must show the new price, not replay the pre-write page.
	get("/rubis/storebid?item=4&user=2&bid=7777")
	after := get("/rubis/viewitem?item=4")
	if after.Header.Get("X-Cache") == "HIT" {
		t.Fatal("page cache served across a committed write")
	}
	if !strings.Contains(string(after.Body), "$7777.00") {
		t.Fatalf("post-write page does not show the bid: %s", after.Body)
	}
	// And the refreshed page is cacheable again.
	again := get("/rubis/viewitem?item=4")
	if again.Header.Get("X-Cache") != "HIT" {
		t.Fatal("refilled page did not hit")
	}
	if !strings.Contains(string(again.Body), "$7777.00") {
		t.Fatal("cached refill lost the committed bid")
	}

	// The write-performing GET itself must never be replayed from cache:
	// its own commit makes the stored copy stale immediately.
	get("/rubis/storebid?item=5&user=2&bid=1234")
	bid2 := get("/rubis/storebid?item=5&user=2&bid=1234")
	if bid2.Header.Get("X-Cache") == "HIT" {
		t.Fatal("a committing interaction was replayed from the page cache")
	}

	// Both cache levels report through /status.
	status := get("/status")
	snap, err := telemetry.Parse(status.Body)
	if err != nil {
		t.Fatalf("parse /status: %v", err)
	}
	web := snap.Tier("web")
	if web == nil || web.PageCacheHits == 0 {
		t.Fatalf("web tier page-cache hits missing from /status: %+v", web)
	}
	app := snap.Tier("servlet")
	if app == nil || app.QueryCacheHits+app.QueryCacheMisses == 0 {
		t.Fatalf("servlet tier query-cache counters missing from /status: %+v", app)
	}
	// The formatted report names both caches so operators can read hit
	// ratios next to the bottleneck verdict (README's worked example).
	text := snap.Format()
	if !strings.Contains(text, "page cache") || !strings.Contains(text, "query cache") {
		t.Fatalf("formatted /status lacks cache lines:\n%s", text)
	}
}

// TestCachingTierDisabledByDefault: with the knobs at zero the stack runs
// exactly as before — no cache headers, no counters.
func TestCachingTierDisabledByDefault(t *testing.T) {
	lab, err := Start(Config{Arch: arch.Servlet, Benchmark: arch.Auction, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	for i := 0; i < 2; i++ {
		resp, err := c.Get("/rubis/viewitem?item=4")
		if err != nil || resp.Status != 200 {
			t.Fatalf("GET: %v %d", err, resp.Status)
		}
		if resp.Header.Get("X-Cache") == "HIT" {
			t.Fatal("page cache active without being configured")
		}
	}
	status, err := c.Get("/status")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.Parse(status.Body)
	if err != nil {
		t.Fatal(err)
	}
	if web := snap.Tier("web"); web == nil || web.PageCacheHits+web.PageCacheMisses != 0 {
		t.Fatalf("page-cache counters present with caching disabled: %+v", web)
	}
}
