// Command loadgen runs the client-browser emulator against a web server
// hosting one of the benchmarks — the role of the paper's client emulation
// machines (§4.1).
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8080 -benchmark bookstore -mix shopping \
//	        -clients 50 -think 100ms -ramp 2s -measure 10s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/httpd/httpclient"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// usage documents every flag plus the semantics -h alone cannot carry:
// what a run's phases mean and where the saturation table comes from.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `loadgen — TPC-W-style client-browser emulator (the paper's §4.1 client machines)

Usage:
  loadgen [flags]

Drives -clients emulated browsers against the web server at -addr. Each
browser runs sessions over one persistent HTTP connection with a
browser-style cookie jar (so JSESSIONID sessions — and their
load-balancer affinity routes — persist across interactions), picks
interactions from the -mix distribution, thinks negative-exponentially
between them, and fetches each page's embedded images. The run is
ramp-up / measure / ramp-down; only completions inside the measurement
window count.

The target is typically cmd/webserver — standalone, or fronting a
load-balanced app tier and a replicated database (the multi-backend
topologies; see "Operating the stack" in README.md). When the target
serves /status (any core.Lab-assembled server), loadgen snapshots it at
both measurement-window edges and prints the windowed per-tier
saturation table naming the bottleneck tier.

Flags:
`)
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(), `
Mixes:
  bookstore: browsing (95%% read-only), shopping (80%%), ordering (50%%)
  auction:   browsing (read-only), bidding (15%% read-write)

Example:
  loadgen -addr 127.0.0.1:8080 -benchmark auction -mix bidding \
          -clients 50 -think 100ms -ramp 2s -measure 10s
`)
}

// fetchStatus polls the server's /status telemetry endpoint; nil when the
// server does not expose it (e.g. a bare webserver without core assembly).
func fetchStatus(addr string) *telemetry.Snapshot {
	c := httpclient.New(addr, 5*time.Second)
	defer c.Close()
	resp, err := c.Get("/status")
	if err != nil || resp.Status != 200 {
		return nil
	}
	snap, err := telemetry.Parse(resp.Body)
	if err != nil {
		return nil
	}
	return snap
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "web server host:port to drive (a webserver, possibly fronting multiple app/db backends)")
		benchmark = flag.String("benchmark", "bookstore", "application profile: bookstore (TPC-W) or auction (RUBiS)")
		mix       = flag.String("mix", "shopping", "workload mix: browsing/shopping/ordering (bookstore) or browsing/bidding (auction)")
		clients   = flag.Int("clients", 10, "number of concurrently emulated browsers")
		think     = flag.Duration("think", 100*time.Millisecond, "mean think time between interactions (negative-exponential, truncated at 10x; TPC-W uses 7s)")
		session   = flag.Duration("session", 30*time.Second, "mean browser-session length (exponential); each session opens a fresh connection and cookie jar")
		ramp      = flag.Duration("ramp", 2*time.Second, "ramp-up phase excluded from measurement")
		measure   = flag.Duration("measure", 10*time.Second, "measurement window (only completions inside it count)")
		rampdown  = flag.Duration("rampdown", time.Second, "ramp-down phase excluded from measurement")
		images    = flag.Bool("images", true, "fetch the images embedded in each page, like the paper's emulated browsers")
		seed      = flag.Int64("seed", 1, "deterministic seed for interaction choice and think times")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: unexpected arguments %q\n\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	app, err := stack.AppByName(*benchmark, "default")
	if err != nil {
		log.Fatal(err)
	}
	// Snapshot /status at the measurement-window edges so the saturation
	// section covers exactly the measured interval, like the throughput.
	var before, after *telemetry.Snapshot
	rep, err := workload.Run(*addr, app.Profile, workload.Config{
		Clients: *clients, Mix: *mix,
		ThinkMean: *think, SessionMean: *session,
		RampUp: *ramp, Measure: *measure, RampDown: *rampdown,
		FetchImages: *images, Seed: *seed,
		OnMeasureStart: func() { before = fetchStatus(*addr) },
		OnMeasureEnd:   func() { after = fetchStatus(*addr) },
	})
	if err != nil {
		log.Fatal(err)
	}
	// Both edge snapshots must have succeeded; otherwise the delta would
	// silently cover boot-to-end counters instead of the window.
	if before != nil && after != nil {
		rep.Tiers = after.Delta(before)
	}
	fmt.Printf("mix=%s clients=%d window=%s\n", rep.Mix, rep.Clients, rep.MeasureDuration)
	fmt.Printf("throughput   %8.0f interactions/min (%d completed, %d errors)\n",
		rep.ThroughputIPM, rep.Interactions, rep.Errors)
	fmt.Printf("latency      mean %.1fms  p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
		rep.Latency.Mean().Seconds()*1000, rep.Latency.Percentile(50).Seconds()*1000,
		rep.Latency.Percentile(95).Seconds()*1000, rep.Latency.Percentile(99).Seconds()*1000)
	fmt.Printf("images       %d fetched\n", rep.ImageFetches)
	fmt.Println("per-interaction completions:")
	for name, n := range rep.ByInteraction {
		fmt.Printf("  %-26s %d\n", name, n)
	}
	if rep.Tiers != nil {
		fmt.Println("\nper-tier saturation (from /status):")
		fmt.Print(rep.FormatTiers())
	}
}
