// Package lb is the application-tier front-end load balancer: an
// httpd.Handler that spreads dynamic requests over N replicated servlet
// (or EJB presentation) containers, the role mod_jk's worker balancing
// plays in sticky-session Apache/Tomcat farms — and the missing piece for
// the paper's "scale the middle tier" experiments, which PR 3's database
// cluster opened on the data side only.
//
// Routing policy:
//
//   - Stateless requests go to the healthy backend with the fewest
//     requests in flight (round-robin on ties) — the same least-loaded
//     discipline the database cluster's read router uses.
//   - Stateful requests carry their backend in the session cookie: the
//     servlet tier appends its route id to new session ids
//     ("s0000002a.a1", the jvmRoute convention), and the balancer pins
//     every request of that session to the matching backend while it is
//     healthy — session affinity.
//   - A transport-level failure ejects the backend and the request is
//     retried transparently on another healthy one. Pinned sessions fail
//     over the same way; with the containers sharing a
//     servlet.MemStore, the survivor restores the session's
//     replicated state and the failover is invisible to the client.
//     Caveat, shared with mod_jk's worker recovery (and with the AJP
//     connector's own single retry underneath): a backend that dies
//     AFTER executing a request but before answering gets that request
//     replayed — a non-idempotent interaction (an order, a bid) can
//     apply twice across a mid-request crash. The stack accepts
//     at-least-once dispatch during failover, as the paper-era farms
//     did.
//   - An ejected backend is re-admitted by probing: after a cooldown
//     (Config.RetryAfter) one live request at a time is allowed through;
//     success restores the backend to the rotation.
package lb

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/httpd"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ErrNoBackends is returned when every backend is ejected and none is due
// for a probe.
var ErrNoBackends = errors.New("lb: no healthy app backends")

// Backend declares one application container to balance over.
type Backend struct {
	// ID is the backend's route id — it must match the container's
	// servlet.Config.Route for session affinity to find it.
	ID string
	// Handler forwards a request to the container (typically an
	// *ajp.Connector).
	Handler httpd.Handler
	// PoolStats optionally exposes the connector pool into this backend,
	// surfaced per backend in telemetry (nil omits it).
	PoolStats func() pool.Stats
}

// Config configures a Balancer.
type Config struct {
	Backends []Backend
	// RetryAfter is the ejection cooldown before an ejected backend gets a
	// probe request (default 500ms).
	RetryAfter time.Duration
}

// backend is the balancer's per-target state.
type backend struct {
	id        string
	h         httpd.Handler
	poolStats func() pool.Stats
	idx       int

	healthy   atomic.Bool
	ejectedAt atomic.Int64 // unix nanos of the last ejection
	probing   atomic.Bool  // one probe request at a time

	inFlight atomic.Int64
	backendCells
}

// backendCells is a backend's routing counter cells, each named after the
// telemetry.BackendRouting field it fills (telemetry.Load).
type backendCells struct {
	Routed, Affinity, Failovers, Errors, Ejections atomic.Int64
}

// Balancer dispatches requests across backends. It is safe for concurrent
// use.
type Balancer struct {
	backends   []*backend
	byRoute    map[string]*backend
	retryAfter time.Duration
	rr         atomic.Uint64
}

// New creates a balancer over the configured backends.
func New(cfg Config) *Balancer {
	if len(cfg.Backends) == 0 {
		panic("lb: no backends")
	}
	b := &Balancer{
		byRoute:    make(map[string]*backend, len(cfg.Backends)),
		retryAfter: cfg.RetryAfter,
	}
	if b.retryAfter <= 0 {
		b.retryAfter = 500 * time.Millisecond
	}
	for i, be := range cfg.Backends {
		t := &backend{id: be.ID, h: be.Handler, poolStats: be.PoolStats, idx: i}
		t.healthy.Store(true)
		b.backends = append(b.backends, t)
		if be.ID != "" {
			if _, dup := b.byRoute[be.ID]; dup {
				// Failing fast beats the silent alternative: the map would
				// keep one winner and pin every matching session there,
				// quietly losing the other backend's session state.
				panic(fmt.Sprintf("lb: duplicate backend route id %q", be.ID))
			}
			b.byRoute[be.ID] = t
		}
	}
	return b
}

// ServeHTTP routes one request: to its session's pinned backend when the
// request carries an affinity cookie and the pin is up, otherwise to the
// least-loaded healthy backend; a backend failing at the transport level
// is ejected and the request retried on the next one.
func (b *Balancer) ServeHTTP(req *httpd.Request) (*httpd.Response, error) {
	tried := make([]bool, len(b.backends))
	var lastErr error
	if p := b.pinOf(req); p != nil {
		if p.healthy.Load() || b.claimProbe(p) {
			resp, err := b.do(p, req, true)
			if err == nil {
				return resp, nil
			}
			lastErr = err
			tried[p.idx] = true
		}
		// The pin is down (or just died under this request): the session
		// fails over to whichever backend the loop below picks.
		p.Failovers.Add(1)
	}
	for {
		be := b.pick(tried)
		if be == nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, ErrNoBackends
		}
		resp, err := b.do(be, req, false)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		tried[be.idx] = true
	}
}

// do forwards the request to one backend, maintaining its counters and
// health. Any handler error is transport-level (container-side failures
// come back as HTTP 5xx responses, not errors) and ejects the backend.
func (b *Balancer) do(be *backend, req *httpd.Request, viaAffinity bool) (*httpd.Response, error) {
	be.Routed.Add(1)
	if viaAffinity {
		be.Affinity.Add(1)
	}
	be.inFlight.Add(1)
	resp, err := be.h.ServeHTTP(req)
	be.inFlight.Add(-1)
	if err != nil {
		be.Errors.Add(1)
		b.eject(be)
		be.probing.Store(false)
		return nil, err
	}
	be.healthy.Store(true) // a probe (or plain success) restores the backend
	be.probing.Store(false)
	return resp, nil
}

// pick selects the least-in-flight healthy backend not yet tried,
// round-robin on ties. Ejected backends whose cooldown has elapsed take
// priority as probes — live traffic is the only readmission signal, and
// the probe claim bounds the cost to one request per cooldown window
// (a failed probe restamps the cooldown and transparently retries
// elsewhere).
func (b *Balancer) pick(tried []bool) *backend {
	for _, be := range b.backends {
		if !tried[be.idx] && b.claimProbe(be) {
			return be
		}
	}
	var best *backend
	bestLoad := int64(0)
	offset := int(b.rr.Add(1))
	for i := range b.backends {
		be := b.backends[(i+offset)%len(b.backends)]
		if tried[be.idx] || !be.healthy.Load() {
			continue
		}
		load := be.inFlight.Load()
		if best == nil || load < bestLoad {
			best, bestLoad = be, load
		}
	}
	return best
}

// eject marks the backend out of rotation and stamps the cooldown clock.
func (b *Balancer) eject(be *backend) {
	if be.healthy.CompareAndSwap(true, false) {
		be.Ejections.Add(1)
	}
	be.ejectedAt.Store(time.Now().UnixNano())
}

// claimProbe atomically claims the single trial request an ejected
// backend receives once its cooldown has elapsed.
func (b *Balancer) claimProbe(be *backend) bool {
	if be.healthy.Load() {
		return false
	}
	if time.Now().UnixNano()-be.ejectedAt.Load() < int64(b.retryAfter) {
		return false
	}
	return be.probing.CompareAndSwap(false, true)
}

// pinOf resolves the request's session-affinity backend from the route
// suffix of its session cookie, or nil for stateless requests and unknown
// routes.
func (b *Balancer) pinOf(req *httpd.Request) *backend {
	id := httpd.CookieValue(req.Header.Get("Cookie"), httpd.SessionCookie)
	if id == "" {
		return nil
	}
	dot := strings.LastIndexByte(id, '.')
	if dot < 0 {
		return nil
	}
	return b.byRoute[id[dot+1:]]
}

// Healthy returns the number of backends currently in rotation.
func (b *Balancer) Healthy() int {
	n := 0
	for _, be := range b.backends {
		if be.healthy.Load() {
			n++
		}
	}
	return n
}

// Stats reports the per-backend routing view for telemetry.
func (b *Balancer) Stats() []telemetry.AppBackend {
	out := make([]telemetry.AppBackend, 0, len(b.backends))
	for _, be := range b.backends {
		a := telemetry.AppBackend{ID: be.id, Healthy: be.healthy.Load(), InFlight: stats.Gauge(be.inFlight.Load())}
		telemetry.Load(&a, &be.backendCells)
		if be.poolStats != nil {
			ps := be.poolStats()
			a.Pool = &ps
		}
		out = append(out, a)
	}
	return out
}
