package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/httpd/httpclient"
	"repro/internal/workload"
)

// Replicated-application-tier coverage: the load balancer's session
// affinity, and transparent session failover via the shared write-through
// session store when the pinned backend dies mid-session.

// routeOf extracts the affinity route from a session id ("s0000001.a1" ->
// "a1"), or "".
func routeOf(sessionID string) string {
	if dot := strings.LastIndex(sessionID, "."); dot >= 0 {
		return sessionID[dot+1:]
	}
	return ""
}

// backendIndex maps a core-assigned route id ("a<i>") to its backend index.
func backendIndex(t *testing.T, route string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(route, "a%d", &i); err != nil {
		t.Fatalf("unparseable route %q: %v", route, err)
	}
	return i
}

// TestAppTierSessionAffinity verifies the balancer pins a session's
// requests to one backend: after N stateful interactions, exactly one
// container has served them all.
func TestAppTierSessionAffinity(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.ServletSync, Benchmark: arch.Bookstore,
		AppReplicas: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()

	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	if resp, err := c.Get("/tpcw/shoppingcart?i_id=1&qty=2"); err != nil || resp.Status != 200 {
		t.Fatalf("cart request: %v %v", resp, err)
	}
	sid := c.Cookie("JSESSIONID")
	route := routeOf(sid)
	if route == "" {
		t.Fatalf("session id %q carries no affinity route", sid)
	}
	// Replicated backends must share one engine-side lock manager (and
	// one session store): per-backend managers would let the (sync)
	// configurations' read-modify-write interactions interleave across
	// backends.
	if lab.containers[0].Context().Locks != lab.containers[1].Context().Locks {
		t.Fatal("backends do not share the engine-side lock manager")
	}

	pinned := backendIndex(t, route)
	before := lab.containers[pinned].Telemetry().Requests
	for i := 0; i < 8; i++ {
		if resp, err := c.Get("/tpcw/shoppingcart"); err != nil || resp.Status != 200 {
			t.Fatalf("pinned request %d: %v %v", i, resp, err)
		}
	}
	if got := lab.containers[pinned].Telemetry().Requests - before; got != 8 {
		t.Fatalf("pinned backend served %d of 8 session requests", got)
	}
	snap := lab.Telemetry()
	if len(snap.AppBackends) != 3 {
		t.Fatalf("telemetry reports %d app backends, want 3", len(snap.AppBackends))
	}
	if ab := snap.AppBackend(route); ab == nil || ab.Affinity < 8 {
		t.Fatalf("affinity counter for %s: %+v", route, ab)
	}
}

// TestAppTierSessionFailover kills the pinned backend mid-session under
// live concurrent traffic: the session must continue on a survivor with
// its cart intact (restored from the write-through session store), and
// telemetry must show the ejection and failover.
func TestAppTierSessionFailover(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.ServletSync, Benchmark: arch.Bookstore,
		AppReplicas: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()

	// Open a session and put a distinctive line in the cart.
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	resp, err := c.Get("/tpcw/shoppingcart?i_id=1&qty=3")
	if err != nil || resp.Status != 200 {
		t.Fatalf("cart request: %v %v", resp, err)
	}
	if !strings.Contains(string(resp.Body), "x3") {
		t.Fatalf("cart page lacks the added line: %s", resp.Body)
	}
	route := routeOf(c.Cookie("JSESSIONID"))
	pinned := backendIndex(t, route)

	// Background stateless traffic keeps both backends busy across the
	// kill (the -race value: balancer + store under real concurrency).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc := httpclient.New(lab.WebAddr(), 10*time.Second)
			defer bc.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				bc.Get("/tpcw/home")
			}
		}()
	}

	lab.StopAppBackend(pinned) // the pinned backend dies mid-session

	// The very next session request must be answered by the survivor with
	// the cart restored.
	resp, err = c.Get("/tpcw/shoppingcart")
	if err != nil || resp.Status != 200 {
		t.Fatalf("post-failover request: %v %v", resp, err)
	}
	if !strings.Contains(string(resp.Body), "x3") {
		t.Fatalf("cart state lost in failover: %s", resp.Body)
	}
	// And the session keeps mutating state on the survivor.
	resp, err = c.Get("/tpcw/shoppingcart?i_id=2&qty=5")
	if err != nil || resp.Status != 200 {
		t.Fatalf("post-failover mutation: %v %v", resp, err)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "x3") || !strings.Contains(body, "x5") {
		t.Fatalf("cart inconsistent after failover: %s", body)
	}
	close(stop)
	wg.Wait()

	survivor := 1 - pinned
	if lab.containers[survivor].Telemetry().Requests == 0 {
		t.Fatal("survivor served nothing")
	}
	snap := lab.Telemetry()
	dead := snap.AppBackend(route)
	if dead == nil || dead.Healthy || dead.Ejections < 1 || dead.Failovers < 1 {
		t.Fatalf("dead backend telemetry: %+v", dead)
	}
	if alive := snap.AppBackend(fmt.Sprintf("a%d", survivor)); alive == nil || !alive.Healthy {
		t.Fatalf("survivor telemetry: %+v", alive)
	}
}

// TestAppReplicaWorkload drives the full client emulator against a
// 2-backend application tier: the run must complete with both backends
// serving traffic and the per-backend telemetry attached to the report.
func TestAppReplicaWorkload(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.ServletSync, Benchmark: arch.Auction,
		AppReplicas: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	rep, err := lab.Run(workload.Config{
		Clients:     8,
		Mix:         "bidding",
		ThinkMean:   2 * time.Millisecond,
		SessionMean: 300 * time.Millisecond,
		RampUp:      100 * time.Millisecond,
		Measure:     700 * time.Millisecond,
		RampDown:    50 * time.Millisecond,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interactions == 0 {
		t.Fatal("no interactions completed")
	}
	if rep.Tiers == nil || len(rep.Tiers.AppBackends) != 2 {
		t.Fatalf("report lacks per-backend section: %+v", rep.Tiers)
	}
	total := int64(0)
	for _, ab := range rep.Tiers.AppBackends {
		total += ab.Routed
	}
	if total == 0 {
		t.Fatal("balancer routed nothing during the window")
	}
	for i := 0; i < lab.AppBackends(); i++ {
		if lab.containers[i].Telemetry().Requests == 0 {
			t.Fatalf("backend %d idle for the whole run", i)
		}
	}
}
