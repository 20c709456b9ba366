package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/workload"
)

// The chaos matrix: the full stack (web → lb → servlet → db cluster) is
// driven by the client emulator while a fault-injecting proxy degrades one
// link per case — (tier × fault) — and every case asserts the same three
// things: the run completes inside a hard wall-clock bound (nothing hangs
// on a stalled peer), the error rate stays bounded (the stack routes
// around the fault instead of failing every request), and after healing
// and RejoinAll the database replicas are row-for-row identical (no fault
// silently diverged the ROWA invariant). Clean kills are covered by the
// failover tests; this matrix is the up-but-wrong matrix.

var auctionChaosTables = []string{"items", "bids", "users"}

// chaosLab starts the standard matrix configuration: 2 db replicas and 2
// app backends, chaos proxies on every cross-tier link, and deadlines
// short enough that a stalled peer surfaces as a bounded error.
func chaosLab(t *testing.T, cfg Config) *Lab {
	t.Helper()
	if cfg.Arch == 0 {
		cfg.Arch = arch.ServletSync
	}
	cfg.Benchmark = arch.Auction
	cfg.Seed = 3
	cfg.DBReplicas = 2
	cfg.Chaos = true
	if cfg.DBTimeouts == (pool.Timeouts{}) {
		cfg.DBTimeouts = pool.Timeouts{Op: 250 * time.Millisecond, Wait: 300 * time.Millisecond}
	}
	if cfg.AppTimeouts == (pool.Timeouts{}) {
		cfg.AppTimeouts = pool.Timeouts{Op: 500 * time.Millisecond}
	}
	lab, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	return lab
}

// runBounded drives the workload and enforces the no-hang bound: with
// every transport deadline in the 250–500ms range, even a fully stalled
// link must not stretch the run anywhere near the bound.
func runBounded(t *testing.T, lab *Lab, wcfg workload.Config) *workload.Report {
	t.Helper()
	start := time.Now()
	rep, err := lab.Run(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("workload took %v — something hung past its deadline", d)
	}
	return rep
}

func TestChaosMatrix(t *testing.T) {
	cases := []struct {
		name string
		tier string // "db" or "app": which link the fault hits
		kind chaos.Kind
	}{
		{"db-latency", "db", chaos.Latency},
		{"db-stall", "db", chaos.Stall},
		{"db-reset", "db", chaos.Reset},
		{"app-stall", "app", chaos.Stall},
		{"app-reset", "app", chaos.Reset},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{AppReplicas: 2}
			if tc.kind == chaos.Latency {
				// The latency case is the slow-replica-ejection case: the
				// injected 150ms lag must trip the 60ms threshold.
				cfg.DBSlowThreshold = 60 * time.Millisecond
			}
			lab := chaosLab(t, cfg)

			// Fault at 100ms into the measurement window, heal at 300ms.
			done := make(chan struct{})
			inject := func() {
				defer close(done)
				time.Sleep(100 * time.Millisecond)
				fault := chaos.Fault{Kind: tc.kind, Delay: 150 * time.Millisecond} // Delay: Latency only
				if tc.tier == "db" {
					lab.DBProxy(1).Set(fault)
				} else {
					lab.AppProxy(1).Set(fault)
				}
				time.Sleep(200 * time.Millisecond)
				lab.DBProxy(1).Clear()
				lab.AppProxy(1).Clear()
			}
			rep := runBounded(t, lab, workload.Config{
				Clients: 6, Mix: "bidding",
				ThinkMean: time.Millisecond, SessionMean: time.Second,
				RampUp: 30 * time.Millisecond, Measure: 600 * time.Millisecond,
				Seed:           11,
				OnMeasureStart: func() { go inject() },
			})
			<-done
			if rep.Interactions == 0 {
				t.Fatal("no interactions completed under chaos")
			}
			// Bounded degradation, not collapse: the fault window covers a
			// third of the run, and the stack ejects the faulty link within
			// one deadline — most interactions must still complete.
			if rep.Errors > rep.Interactions/3 {
				t.Fatalf("error rate too high under %s: %d errors / %d completions",
					tc.name, rep.Errors, rep.Interactions)
			}

			// Recovery: every ejected replica rejoins and the tier is
			// byte-identical — the fault never half-applied a write.
			if err := lab.RejoinAll(); err != nil {
				t.Fatalf("rejoin after heal: %v", err)
			}
			if cl := lab.Cluster(); cl.Healthy() != cl.Replicas() {
				t.Fatalf("healthy %d / %d after RejoinAll", cl.Healthy(), cl.Replicas())
			}
			assertReplicasIdentical(t, lab, 2, auctionChaosTables)
		})
	}
}

// TestChaosScriptedSchedule is the deterministic acceptance run: one
// seeded schedule slows then stalls db replica 1 while the app backend 1
// link flaps, all mid-workload, with no goroutine in the test scripting
// faults — the windows are data. It asserts what the schedule guarantees on
// a host of any speed: the run outlasts every window and completes, no
// interaction outlasts the deadlines that bound it, the proxies show the
// faults actually fired, and once the windows have closed the replicas
// rejoin identical and the stack serves again. It does not bound the error
// ratio: failed requests return in microseconds and completed ones in
// milliseconds, so under CPU contention that ratio measures the host (8 of
// 10 runs passed under six busy loops when it was asserted).
func TestChaosScriptedSchedule(t *testing.T) {
	t.Parallel()
	dbSched := chaos.Schedule{Seed: 42, Rules: []chaos.Rule{
		{Fault: chaos.Fault{Kind: chaos.Latency, Delay: 40 * time.Millisecond, Jitter: 20 * time.Millisecond},
			From: 100 * time.Millisecond, To: 500 * time.Millisecond},
		{Fault: chaos.Fault{Kind: chaos.Stall},
			From: 500 * time.Millisecond, To: 700 * time.Millisecond},
	}}
	appSched := chaos.Schedule{Seed: 42}
	appSched.Flap(300*time.Millisecond, 2, 80*time.Millisecond, 120*time.Millisecond)
	// Windows are offsets from proxy start, which precedes the run: a
	// measurement window longer than the last To outlasts the schedule
	// however long the lab took to finish starting.
	var scheduleEnd time.Duration
	for _, r := range append(dbSched.Rules, appSched.Rules...) {
		scheduleEnd = max(scheduleEnd, r.To)
	}
	lab := chaosLab(t, Config{
		AppReplicas: 2,
		DBChaos:     map[int]chaos.Schedule{1: dbSched},
		AppChaos:    map[int]chaos.Schedule{1: appSched},
	})
	wcfg := workload.Config{
		Clients: 6, Mix: "bidding",
		ThinkMean: time.Millisecond, SessionMean: time.Second,
		RampUp: 30 * time.Millisecond, Measure: scheduleEnd + 100*time.Millisecond,
		Seed: 19,
	}
	rep := runBounded(t, lab, wcfg)
	if rep.Interactions == 0 {
		t.Fatal("no interactions completed under the scripted schedule")
	}
	// Bounded outcomes: every deadline on the path is at most 500ms
	// (chaosLab), so an interaction that waited one out and then completed
	// elsewhere still finishes well inside this.
	if worst := time.Duration(rep.Latency.Max() * float64(time.Second)); worst > 3*time.Second {
		t.Errorf("an interaction took %v — it outlasted the transport deadlines", worst)
	}
	// The schedule fired for real: replica 1's link saw delayed or stalled
	// traffic, and the flapping app link reset connections.
	if s := lab.DBProxy(1).Stats(); s.DelayedIO == 0 && s.Stalled == 0 {
		t.Errorf("db schedule never fired: %+v", s)
	}
	if s := lab.AppProxy(1).Stats(); s.Resets == 0 {
		t.Errorf("app flap schedule never fired: %+v", s)
	}
	// Every window has closed: the tier must come back whole, identical,
	// and serving.
	if err := lab.RejoinAll(); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if cl := lab.Cluster(); cl.Healthy() != cl.Replicas() {
		t.Fatalf("healthy %d / %d after RejoinAll", cl.Healthy(), cl.Replicas())
	}
	assertReplicasIdentical(t, lab, 2, auctionChaosTables)
	wcfg.Measure = 200 * time.Millisecond
	if after := runBounded(t, lab, wcfg); after.Interactions == 0 {
		t.Fatalf("nothing served once the schedule was over (%d errors)", after.Errors)
	}
}

// TestChaosDegradedReadOnly: with StrictWrites, partitioning a replica
// makes the write policy unsatisfiable — the cluster must degrade to
// explicit read-only (typed fast-fail on writes) while a read-only
// workload keeps serving off the survivor, then recover fully on heal +
// rejoin. The auction browsing mix carries zero write-interaction weight,
// so it is the degraded-path probe.
func TestChaosDegradedReadOnly(t *testing.T) {
	t.Parallel()
	lab := chaosLab(t, Config{
		Arch:           arch.Servlet,
		DBStrictWrites: true,
		DBTimeouts:     pool.Timeouts{Op: 200 * time.Millisecond},
	})
	cl := lab.Cluster()
	if _, err := cl.Exec("UPDATE items SET max_bid = 11 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	lab.DBProxy(1).Set(chaos.Fault{Kind: chaos.Stall})
	if _, err := cl.Exec("UPDATE items SET max_bid = 12 WHERE id = 1"); err == nil {
		t.Fatal("strict write through a partitioned replica must fail")
	}
	if !cl.Degraded() {
		t.Fatal("strict write failure must latch degraded mode")
	}
	start := time.Now()
	_, err := cl.Exec("UPDATE items SET max_bid = 13 WHERE id = 1")
	if !errors.Is(err, cluster.ErrDegraded) {
		t.Fatalf("degraded write = %v, want cluster.ErrDegraded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("degraded write took %v, want a fast fail before any broadcast", d)
	}

	// Reads keep serving end to end while writes are refused.
	rep := runBounded(t, lab, workload.Config{
		Clients: 4, Mix: "browsing",
		ThinkMean: time.Millisecond, SessionMean: time.Second,
		Measure: 300 * time.Millisecond, Seed: 23,
	})
	if rep.Interactions == 0 {
		t.Fatal("read-only workload served nothing in degraded mode")
	}
	if rep.Errors > rep.Interactions/10 {
		t.Fatalf("degraded reads erroring: %d errors / %d completions", rep.Errors, rep.Interactions)
	}

	lab.DBProxy(1).Clear()
	if err := lab.RejoinAll(); err != nil {
		t.Fatalf("rejoin after heal: %v", err)
	}
	if cl.Degraded() {
		t.Fatal("full rejoin must exit degraded mode")
	}
	if _, err := cl.Exec("UPDATE items SET max_bid = ? WHERE id = 1", sqldb.Float(14)); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	assertReplicasIdentical(t, lab, 2, auctionChaosTables)
}
