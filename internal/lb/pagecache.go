// HTTP page cache: the level-2 half of the caching tier (DESIGN.md §10).
//
// Dynamic pages on the browse-heavy mixes are regenerated for every
// request even though nothing changed between two requests — the paper's
// whole cost model is the price of that regeneration across the web, app
// and database tiers. The page cache short-circuits it at the edge: a
// session-less GET's full response is kept and replayed until either its
// TTL lapses or the database content epoch moves.
//
// Two freshness signals compose:
//   - The content epoch — the cluster-wide committed-write counter
//     (cluster.Client.ContentEpoch). In process it is read directly via
//     Config.Epoch; across processes the app tier republishes it on every
//     response as the X-Content-Epoch header, captured BEFORE the page
//     rendered (so the tag can only understate the data's freshness, never
//     overstate it — the conservative direction). The cache tracks the
//     maximum epoch it has seen, and an entry is served only while its
//     fill-time epoch still equals the current one: any commit anywhere in
//     the database tier invalidates every cached page at once. Pages are
//     whole-catalog aggregates (best sellers, search results), so the
//     blunt signal is the honest one.
//   - A TTL backstop (default 2s) for deployments where no epoch reaches
//     the cache at all.
//
// Only anonymous traffic is cacheable: non-GET requests and requests
// carrying a session cookie bypass the cache entirely, and responses that
// set a cookie, fail, or carry a non-200 status are never stored — a page
// rendered for a session could embed cart or identity state.
package lb

import (
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/httpd"
	"repro/internal/lru"
)

// ContentEpochHeader carries the app tier's pre-render content epoch on
// every response (set by internal/servlet; see cluster.Client.ContentEpoch).
const ContentEpochHeader = "X-Content-Epoch"

// DefaultPageTTL is the freshness backstop when no content epoch reaches
// the cache: long enough to absorb a burst of identical browse requests,
// short enough that a human reloading sees fresh data.
const DefaultPageTTL = 2 * time.Second

// PageCacheConfig configures a PageCache.
type PageCacheConfig struct {
	// MaxEntries bounds the cache (required > 0).
	MaxEntries int
	// TTL is the per-entry freshness backstop (default DefaultPageTTL).
	TTL time.Duration
	// Epoch optionally reads the database content epoch in process
	// (cluster.Client.ContentEpoch). When nil the cache relies on the
	// X-Content-Epoch response header, falling back to TTL-only freshness
	// if the app tier never sends one.
	Epoch func() uint64
	// CookieName is the session cookie whose presence marks a request as
	// session-bound and uncacheable (default JSESSIONID).
	CookieName string
}

// PageCacheStats is the cache's observability surface.
type PageCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Bypasses      int64 `json:"bypasses"`
	Entries       int   `json:"entries"`
}

type pageEntry struct {
	resp    *httpd.Response
	epoch   uint64
	expires time.Time
}

// PageCache is a bounded LRU of whole HTTP responses wrapped around a
// handler. Safe for concurrent use.
type PageCache struct {
	next   httpd.Handler
	ttl    time.Duration
	epoch  func() uint64
	cookie string

	// headerEpoch is the maximum X-Content-Epoch observed on any response —
	// the cross-process view of the database's committed-write counter.
	headerEpoch atomic.Uint64

	pages    *lru.Cache[pageEntry]
	bypasses atomic.Int64
}

// NewPageCache wraps next with a page cache; it panics unless
// cfg.MaxEntries is positive.
func NewPageCache(next httpd.Handler, cfg PageCacheConfig) *PageCache {
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = DefaultPageTTL
	}
	cookie := cfg.CookieName
	if cookie == "" {
		cookie = "JSESSIONID"
	}
	return &PageCache{
		next:   next,
		ttl:    ttl,
		epoch:  cfg.Epoch,
		cookie: cookie,
		pages:  lru.New[pageEntry](cfg.MaxEntries),
	}
}

// Stats snapshots the counters.
func (p *PageCache) Stats() PageCacheStats {
	st := p.pages.Stats()
	return PageCacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Invalidations: st.Invalidations,
		Bypasses:      p.bypasses.Load(),
		Entries:       st.Len,
	}
}

// pageKey identifies a cacheable page: method plus the parsed path,
// re-escaped, and the query re-encoded in sorted-key order. The request
// line's raw target is deliberately NOT used — "/s?a=1&b=2" and
// "/s?b=2&a=1" (and two percent-encodings of the same value) are the same
// page, and keying on the raw bytes would both fragment the cache and let an
// attacker mint unbounded distinct keys for one page by shuffling
// parameters. The path is re-escaped because it is decoded: a '?' decoded
// out of "/x%3Fb=1" must not read as the query separator of "/x?b=1".
func pageKey(req *httpd.Request) string {
	target := pathEscaper.Replace(req.Path)
	if len(req.Query) > 0 {
		target += "?" + req.Query.Encode()
	}
	return req.Method + " " + target
}

// pathEscaper escapes the two bytes that would make a decoded path
// ambiguous in a page key: '?' (the query separator) and '%' (so an escaped
// '?' cannot be mistaken for a decoded one).
var pathEscaper = strings.NewReplacer("%", "%25", "?", "%3F")

// currentEpoch is the freshest content-epoch view available: the direct
// in-process reading when configured, never behind the maximum seen on
// response headers.
func (p *PageCache) currentEpoch() uint64 {
	e := p.headerEpoch.Load()
	if p.epoch != nil {
		if v := p.epoch(); v > e {
			e = v
		}
	}
	return e
}

// observe folds a response's X-Content-Epoch into the max-seen tracker and
// returns its value (ok reports presence). Runs on every forwarded
// response, bypasses included, so session traffic keeps the epoch fresh
// even when no cacheable request has passed recently.
func (p *PageCache) observe(resp *httpd.Response) (uint64, bool) {
	v := resp.Header.Get(ContentEpochHeader)
	if v == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, false
	}
	for {
		cur := p.headerEpoch.Load()
		if n <= cur || p.headerEpoch.CompareAndSwap(cur, n) {
			return n, true
		}
	}
}

// ServeHTTP serves a validated cached page, or forwards and fills.
func (p *PageCache) ServeHTTP(req *httpd.Request) (*httpd.Response, error) {
	if req.Method != "GET" || httpd.CookieValue(req.Header.Get("Cookie"), p.cookie) != "" {
		p.bypasses.Add(1)
		return p.forward(req)
	}
	key := pageKey(req)
	// Fresh by both signals, or the entry is removed (per-entry invalidation).
	now, cur := time.Now(), p.currentEpoch()
	fresh := func(e pageEntry) bool { return e.epoch == cur && !now.After(e.expires) }
	if e, ok := p.pages.Get(key, fresh); ok {
		resp := copyResponse(e.resp) // the stored entry stays pristine
		resp.Header.Set("X-Cache", "HIT")
		return resp, nil
	}
	// The epoch is captured before the forward: a commit racing the render
	// lands on top of this value and the freshly stored entry validates as
	// stale — conservative in the only safe direction.
	e0 := p.currentEpoch()
	resp, err := p.next.ServeHTTP(req)
	if resp == nil || err != nil {
		return resp, err
	}
	if ep, hasHeader := p.observe(resp); hasHeader {
		// The app's own pre-render capture is the authoritative tag: the
		// page reflects every commit up to ep, and any commit after the
		// capture advances the observed epoch past it. When ep is older
		// than our pre-forward view the entry is born stale — conservative
		// in the only safe direction.
		e0 = ep
	}
	if resp.Status == 200 && resp.Header.Get("Set-Cookie") == "" {
		// A private copy: the server layer may still decorate the
		// original's headers while writing it out.
		p.pages.Put(key, pageEntry{resp: copyResponse(resp), epoch: e0, expires: time.Now().Add(p.ttl)})
	}
	return resp, err
}

// forward proxies one uncacheable request, still observing the response's
// epoch header.
func (p *PageCache) forward(req *httpd.Request) (*httpd.Response, error) {
	resp, err := p.next.ServeHTTP(req)
	if resp != nil {
		p.observe(resp)
	}
	return resp, err
}

// copyResponse clones status and headers; the body bytes are shared — a
// completed response's body is never appended to again.
func copyResponse(r *httpd.Response) *httpd.Response {
	h := make(httpd.Header, len(r.Header)+1)
	for k, v := range r.Header {
		h[k] = v
	}
	return &httpd.Response{Status: r.Status, Header: h, Body: r.Body}
}
