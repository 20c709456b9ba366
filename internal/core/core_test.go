package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/httpd/httpclient"
	"repro/internal/workload"
)

func startLab(t testing.TB, a arch.Arch, b arch.Benchmark) *Lab {
	t.Helper()
	lab, err := Start(Config{Arch: a, Benchmark: b, Seed: 5})
	if err != nil {
		t.Fatalf("Start(%v,%v): %v", a, b, err)
	}
	t.Cleanup(lab.Close)
	return lab
}

// TestAllConfigurationsServeBothBenchmarks is the end-to-end functional
// matrix: 6 architectures x 2 benchmarks over real loopback TCP.
func TestAllConfigurationsServeBothBenchmarks(t *testing.T) {
	for _, b := range []arch.Benchmark{arch.Bookstore, arch.Auction} {
		for _, a := range arch.Archs() {
			a, b := a, b
			t.Run(fmt.Sprintf("%v/%v", b, a), func(t *testing.T) {
				t.Parallel()
				lab := startLab(t, a, b)
				c := httpclient.New(lab.WebAddr(), 10*time.Second)
				defer c.Close()
				paths := []string{"/tpcw/home?c_id=1", "/tpcw/productdetail?i_id=2", "/tpcw/buyconfirm?c_id=3"}
				if b == arch.Auction {
					paths = []string{"/rubis/home", "/rubis/viewitem?item=2", "/rubis/storebid?item=2&user=3&bid=999"}
				}
				for _, p := range paths {
					resp, err := c.Get(p)
					if err != nil {
						t.Fatalf("GET %s: %v", p, err)
					}
					if resp.Status != 200 {
						t.Fatalf("GET %s -> %d: %s", p, resp.Status, resp.Body)
					}
				}
				// Images served by the web tier directly.
				img, err := c.Get("/img/item_1.gif")
				if err != nil || img.Status != 200 || len(img.Body) == 0 {
					t.Fatalf("image: %v %d", err, img.Status)
				}
			})
		}
	}
}

// TestMountDispatchesInProcess: the PHP configuration's generator runs in
// the web server's process (§2.1). Its web tier dials no AJP pool, it has
// one app backend, and the container the web server calls counts the
// request the page was served from.
func TestMountDispatchesInProcess(t *testing.T) {
	lab := startLab(t, arch.PHP, arch.Bookstore)
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	before := lab.Telemetry()
	resp, err := c.Get("/tpcw/home?c_id=1")
	if err != nil || resp.Status != 200 {
		t.Fatalf("GET home: %v %v", err, resp)
	}
	tiers := lab.Telemetry().Delta(before)
	if web := tiers.Tier("web"); web == nil || web.Pool != nil {
		t.Fatal("the web tier is missing or dials a pool")
	}
	if app := tiers.Tier("servlet"); app == nil || app.Requests != 1 {
		t.Fatal("the container did not count exactly the one request")
	}
	if n := lab.AppBackends(); n != 1 {
		t.Fatalf("AppBackends = %d, want 1", n)
	}
}

// TestWorkloadDrivesLab runs the emulator briefly against two archs and
// checks the measurement plumbing.
func TestWorkloadDrivesLab(t *testing.T) {
	for _, a := range []arch.Arch{arch.PHP, arch.ServletSync} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			lab := startLab(t, a, arch.Auction)
			rep, err := lab.Run(workload.Config{
				Clients:     4,
				Mix:         "bidding",
				ThinkMean:   5 * time.Millisecond,
				SessionMean: 500 * time.Millisecond,
				RampUp:      100 * time.Millisecond,
				Measure:     700 * time.Millisecond,
				RampDown:    50 * time.Millisecond,
				FetchImages: true,
				Seed:        3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Interactions == 0 {
				t.Fatal("no interactions completed")
			}
			if rep.Errors > rep.Interactions/10 {
				t.Fatalf("error rate too high: %d errors / %d ok", rep.Errors, rep.Interactions)
			}
			if rep.ImageFetches == 0 {
				t.Fatal("emulator fetched no embedded images")
			}
			if rep.Latency.Count() == 0 || rep.Latency.Mean() <= 0 {
				t.Fatal("latency not recorded")
			}
			if rep.ThroughputIPM <= 0 {
				t.Fatal("throughput not computed")
			}
		})
	}
}

// TestEJBIssuesMoreQueries verifies the architectural signature the paper
// measures: for the same workload, the EJB configuration issues many more
// database statements than the hand-written SQL app.
func TestEJBIssuesMoreQueries(t *testing.T) {
	lab := startLab(t, arch.EJB, arch.Auction)
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	ejbQueries := func() int64 { return lab.Telemetry().Tier("ejb").Queries }
	before := ejbQueries()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := c.Get(fmt.Sprintf("/rubis/viewitem?item=%d", 1+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	perInteraction := float64(ejbQueries()-before) / n
	if perInteraction < 2 {
		t.Fatalf("EJB issued %.1f statements/interaction; CMP should need several", perInteraction)
	}
}

// TestStateConsistencyAcrossArchitectures runs the same deterministic write
// on each software path and compares the item page it leaves: the bodies
// must be byte-identical, and show the bid. TestArchitecturesServeSamePages
// is the generated version of this check.
func TestStateConsistencyAcrossArchitectures(t *testing.T) {
	see := func(a arch.Arch) string {
		lab := startLab(t, a, arch.Auction)
		c := httpclient.New(lab.WebAddr(), 10*time.Second)
		defer c.Close()
		if _, err := c.Get("/rubis/storebid?item=4&user=2&bid=7777"); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Get("/rubis/viewitem?item=4")
		if err != nil {
			t.Fatal(err)
		}
		body := string(resp.Body)
		if resp.Status != 200 || !strings.Contains(body, "$7777.00") {
			t.Fatalf("%v: bid not visible: %d %s", a, resp.Status, body)
		}
		return body
	}
	want := see(arch.PHP)
	for _, a := range []arch.Arch{arch.Servlet, arch.ServletSync, arch.EJB} {
		if got := see(a); got != want {
			t.Errorf("%v's item page differs from %v's:\n%s\nvs\n%s", a, arch.PHP, got, want)
		}
	}
}

// TestBookstoreSearchStaticInteraction asserts §3.1's "one interaction
// involves only static content": searchrequest works even though it touches
// no tables.
func TestBookstoreSearchStaticInteraction(t *testing.T) {
	lab := startLab(t, arch.Servlet, arch.Bookstore)
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	resp, err := c.Get("/tpcw/searchrequest")
	if err != nil || resp.Status != 200 {
		t.Fatalf("searchrequest: %v %d", err, resp.Status)
	}
}
