package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/httpd/httpclient"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func shortRun(t *testing.T, lab *Lab) *workload.Report {
	t.Helper()
	rep, err := lab.Run(workload.Config{
		Clients: 4, Mix: "bidding",
		ThinkMean: 2 * time.Millisecond, SessionMean: 500 * time.Millisecond,
		RampUp: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStatusEndpointReportsSaturation is the acceptance check for the
// cross-tier telemetry: after a workload run, GET /status must return
// non-zero per-tier pool and request metrics for every architecture.
func TestStatusEndpointReportsSaturation(t *testing.T) {
	for _, a := range []arch.Arch{arch.PHP, arch.ServletSync, arch.EJB} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			lab := startLab(t, a, arch.Auction)
			shortRun(t, lab)

			c := httpclient.New(lab.WebAddr(), 10*time.Second)
			defer c.Close()
			resp, err := c.Get("/status")
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != 200 {
				t.Fatalf("GET /status -> %d: %s", resp.Status, resp.Body)
			}
			snap, err := telemetry.Parse(resp.Body)
			if err != nil {
				t.Fatalf("parse /status: %v\n%s", err, resp.Body)
			}
			if snap.Arch != a.String() {
				t.Fatalf("arch = %q, want %q", snap.Arch, a.String())
			}

			web := snap.Tier("web")
			if web == nil || web.Requests == 0 {
				t.Fatalf("web tier missing or idle: %+v", snap)
			}
			sv := snap.Tier("servlet")
			if sv == nil || sv.Requests == 0 {
				t.Fatalf("servlet tier missing or idle: %+v", snap)
			}
			db := snap.Tier("db")
			if db == nil || db.Queries == 0 {
				t.Fatalf("db tier missing or idle: %+v", snap)
			}
			// Every architecture's hot statements run over the prepared
			// fast path, and repeats must hit the shared plan cache.
			if db.PreparedExecs == 0 {
				t.Fatalf("no prepared executes reported: %+v", db)
			}
			if db.PlanHits == 0 || db.PlanMisses == 0 {
				t.Fatalf("plan cache counters idle: %+v", db)
			}
			if a != arch.PHP {
				if web.Pool == nil || web.Pool.Gets == 0 || web.Pool.Dials == 0 {
					t.Fatalf("AJP connector pool idle: %+v", web.Pool)
				}
			}
			if sv.Pool == nil || sv.Pool.Gets == 0 {
				t.Fatalf("servlet downstream pool idle: %+v", sv.Pool)
			}
			if a == arch.EJB {
				ejb := snap.Tier("ejb")
				if ejb == nil || ejb.Queries == 0 || ejb.Pool.Gets == 0 {
					t.Fatalf("ejb tier missing or idle: %+v", ejb)
				}
			}
		})
	}
}

// TestPoolNamesKeepKindPrefix pins what bench/counts.go keys each
// *.pool_wait_us_per_op on: a tier's pool name starts with its transport's
// kind, however many app backends and database replicas the fold combined.
// The capacities check the fold summed every owner's pool.
func TestPoolNamesKeepKindPrefix(t *testing.T) {
	for _, a := range []arch.Arch{arch.Servlet, arch.EJB} {
		for _, apps := range []int{1, 2} {
			for _, reps := range []int{1, 2} {
				t.Run(fmt.Sprintf("%v/apps=%d/replicas=%d", a, apps, reps), func(t *testing.T) {
					lab, err := Start(Config{Arch: a, Benchmark: arch.Auction, AppReplicas: apps, DBReplicas: reps})
					if err != nil {
						t.Fatal(err)
					}
					defer lab.Close()
					snap := lab.Telemetry()
					check := func(tier, kind string, capacity int) {
						t.Helper()
						tr := snap.Tier(tier)
						if tr == nil || tr.Pool == nil {
							t.Fatalf("%s tier has no pool: %+v", tier, tr)
						}
						if !strings.HasPrefix(tr.Pool.Name, kind) || int(tr.Pool.Capacity) != capacity {
							t.Errorf("%s pool = %q with capacity %d, want a %q pool of %d", tier, tr.Pool.Name, tr.Pool.Capacity, kind, capacity)
						}
					}
					check("web", "ajp", apps*poolSize)
					if a == arch.EJB {
						check("servlet", "rmi", apps*poolSize)
						check("ejb", "db", apps*reps*poolSize)
					} else {
						check("servlet", "db", apps*reps*poolSize)
					}
				})
			}
		}
	}
}

// TestRunAttachesTierDelta checks that Lab.Run windows the telemetry: the
// report carries per-tier counters for the run and names a bottleneck.
func TestRunAttachesTierDelta(t *testing.T) {
	lab := startLab(t, arch.ServletSync, arch.Auction)
	rep := shortRun(t, lab)
	if rep.Tiers == nil {
		t.Fatal("report has no tier telemetry")
	}
	web := rep.Tiers.Tier("web")
	if web == nil || web.Requests == 0 {
		t.Fatalf("windowed web tier: %+v", web)
	}
	db := rep.Tiers.Tier("db")
	if db == nil || db.Queries == 0 {
		t.Fatalf("windowed db tier: %+v", db)
	}
	if rep.Bottleneck() == "" {
		t.Fatal("no bottleneck named")
	}
	if rep.FormatTiers() == "" {
		t.Fatal("empty tier report")
	}

	// A second run's window must not double-count the first run's work:
	// the delta should be in the same order of magnitude as its own run,
	// not cumulative. Loose sanity bound: second window's web requests
	// are fewer than the lab's cumulative total.
	rep2 := shortRun(t, lab)
	total := lab.Telemetry().Tier("web").Requests
	if w2 := rep2.Tiers.Tier("web").Requests; w2 <= 0 || w2 >= total {
		t.Fatalf("window not differenced: run2=%d cumulative=%d", w2, total)
	}
}

// TestCountersSurviveReplicaRestart: restarting a database backend replaces
// the objects that own its counters — the server alone, or from disk the
// server and its engine. The lab folds each replaced one's last row into the
// backend's, so no counter windowed across a restart goes backwards, in the
// db tier or in the replica's row, and the replica's row carries the
// backend's DBStats.
func TestCountersSurviveReplicaRestart(t *testing.T) {
	for _, fromDisk := range []bool{false, true} {
		fromDisk := fromDisk
		t.Run(fmt.Sprintf("fromDisk=%v", fromDisk), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Arch: arch.Servlet, Benchmark: arch.Auction, Seed: 3, DBReplicas: 2}
			if fromDisk {
				cfg.DBDataDir = t.TempDir()
			}
			lab, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer lab.Close()
			views := func(n int) {
				c := httpclient.New(lab.WebAddr(), 5*time.Second)
				defer c.Close()
				for i := 0; i < n; i++ {
					c.Get(fmt.Sprintf("/rubis/viewitem?item=%d", 1+i%20))
				}
			}
			views(50)
			before := lab.Telemetry()
			if fromDisk {
				if err := lab.CrashReplica(1); err != nil {
					t.Fatal(err)
				}
				restartFromDiskOrSkip(t, lab, 1)
			} else {
				lab.StopReplica(1)
				if err := lab.RestartReplica(1); err != nil {
					t.Skipf("cannot rebind the database: %v", err)
				}
			}
			if err := lab.RejoinAll(); err != nil {
				t.Fatal(err)
			}
			views(10)
			d := lab.Telemetry().Delta(before)
			var neg []string
			for _, tier := range d.Tiers {
				neg = append(neg, negative(tier.Name+".", reflect.ValueOf(tier))...)
			}
			for _, r := range d.Replicas {
				neg = append(neg, negative(fmt.Sprintf("replica %d.", r.ID), reflect.ValueOf(r))...)
			}
			if len(neg) > 0 {
				t.Errorf("counters went backwards across the restart: %s", strings.Join(neg, ", "))
			}
			if db := d.Tier("db"); db.Queries <= 0 {
				t.Errorf("db tier served %d statements in the window", db.Queries)
			}
			// Each replica row carries its backend's DBStats — its server's,
			// its engine's and what their replaced predecessors counted —
			// field for field, with nothing in core naming a field.
			for _, r := range lab.Telemetry().Replicas {
				want := lab.dbSrvs[r.ID].Telemetry()
				telemetry.Add(&want, lab.dbs[r.ID].Telemetry())
				telemetry.Add(&want, lab.dbRetired[r.ID])
				if r.DBStats != want.DBStats || r.SnapshotReads == 0 {
					t.Errorf("replica %d DBStats = %+v, want its backend's %+v", r.ID, r.DBStats, want.DBStats)
				}
			}
		})
	}
}

// negative lists the counters of the row v (its int64 fields, embedded
// structs included) that are below zero.
func negative(prefix string, v reflect.Value) []string {
	var out []string
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int64:
			if f.Int() < 0 {
				out = append(out, fmt.Sprintf("%s = %d", name, f.Int()))
			}
		case reflect.Struct:
			out = append(out, negative(name+".", f)...)
		}
	}
	return out
}
