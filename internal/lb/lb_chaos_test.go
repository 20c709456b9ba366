package lb

import (
	"testing"
	"time"

	"repro/internal/ajp"
	"repro/internal/chaos"
	"repro/internal/httpd"
	"repro/internal/pool"
	"repro/internal/servlet"
)

// TestProbeAgainstStalledBackend is the slow-failure readmission test: a
// real AJP backend sits behind a fault proxy that ACCEPTS connections but
// stalls them — the failure mode a closed listener (the other probe test)
// cannot model. The balancer must eject it on the connector's op
// deadline, keep probing without readmitting while the link stays
// stalled, bound every caller's latency to one deadline (probes ride live
// requests), and readmit once the link heals.
func TestProbeAgainstStalledBackend(t *testing.T) {
	c := servlet.NewContainer(servlet.Config{Route: "a1"})
	c.Register("/x", servlet.Func(func(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
		resp := httpd.NewResponse()
		resp.Body = []byte("ok")
		return resp, nil
	}))
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	px, err := chaos.Listen(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	const opTimeout = 150 * time.Millisecond
	conn := ajp.NewConnectorT(px.Addr(), 2, pool.Timeouts{Op: opTimeout})
	defer conn.Close()
	good := &stubBackend{}
	b := New(Config{
		Backends: []Backend{
			{ID: "a0", Handler: good},
			{ID: "a1", Handler: conn},
		},
		RetryAfter: 50 * time.Millisecond,
	})

	// Healthy start: the pinned request reaches the real container through
	// the (transparent) proxy.
	resp, err := b.ServeHTTP(reqWithCookie("s01.a1"))
	if err != nil || string(resp.Body) != "ok" {
		t.Fatalf("through-proxy request: %v %q", err, resp)
	}

	// Stall the link. The pinned request blocks until the connector's op
	// deadline, then fails over to a0 — bounded, not hung.
	px.Set(chaos.Fault{Kind: chaos.Stall})
	start := time.Now()
	resp, err = b.ServeHTTP(reqWithCookie("s01.a1"))
	if err != nil {
		t.Fatalf("failover request: %v", err)
	}
	if d := time.Since(start); d > 10*opTimeout {
		t.Fatalf("failover took %v, want ~ one op deadline", d)
	}
	if b.Healthy() != 1 {
		t.Fatalf("healthy = %d, want the stalled backend ejected", b.Healthy())
	}

	// While the link stays stalled, cooldown-elapsed probes keep riding
	// live requests: each one burns at most one deadline, fails, and must
	// NOT readmit the backend.
	for i := 0; i < 3; i++ {
		time.Sleep(60 * time.Millisecond) // past RetryAfter: a probe is due
		start = time.Now()
		if _, err := b.ServeHTTP(reqWithCookie("")); err != nil {
			t.Fatalf("request during stalled probe: %v", err)
		}
		if d := time.Since(start); d > 10*opTimeout {
			t.Fatalf("probing request took %v, want bounded by the op deadline", d)
		}
		if b.Healthy() != 1 {
			t.Fatal("a stalled probe must not readmit the backend")
		}
	}

	// Heal. The stalled connections die (stall-kills invariant), the
	// connector redials, and the next due probe readmits the backend.
	px.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for b.Healthy() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("backend never readmitted after heal")
		}
		time.Sleep(60 * time.Millisecond)
		if _, err := b.ServeHTTP(reqWithCookie("")); err != nil {
			t.Fatalf("request during readmission: %v", err)
		}
	}
	// And the readmitted backend serves pinned traffic again.
	resp, err = b.ServeHTTP(reqWithCookie("s01.a1"))
	if err != nil || string(resp.Body) != "ok" {
		t.Fatalf("post-readmission pinned request: %v %q", err, resp)
	}
}
