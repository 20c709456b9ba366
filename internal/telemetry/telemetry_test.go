package telemetry

import (
	"strings"
	"testing"

	"repro/internal/pool"
)

func snap() *Snapshot {
	return &Snapshot{
		Arch: "WsApSr-DB", Benchmark: "bookstore",
		Tiers: []Tier{
			{Name: "web", Requests: 100, Downstream: "servlet",
				Pool: &pool.Stats{Name: "ajp", Capacity: 8, Gets: 40}},
			{Name: "servlet", Requests: 40, Downstream: "db",
				Pool: &pool.Stats{Name: "db", Capacity: 8, Gets: 90, Waits: 12, WaitNanos: 5e6}},
			{Name: "db", Queries: 90, DBStats: DBStats{PreparedExecs: 70, TextExecs: 20,
				PlanHits: 85, PlanMisses: 5}},
		},
	}
}

func TestDeltaSubtractsCounters(t *testing.T) {
	before := snap()
	after := snap()
	after.Tiers[0].Requests = 250
	after.Tiers[2].Queries = 300
	after.Tiers[1].Pool.WaitNanos = 9e6

	after.Tiers[2].PreparedExecs = 170
	after.Tiers[2].PlanHits = 185

	d := after.Delta(before)
	if got := d.Tier("web").Requests; got != 150 {
		t.Fatalf("web delta = %d, want 150", got)
	}
	if got := d.Tier("db").Queries; got != 210 {
		t.Fatalf("db delta = %d, want 210", got)
	}
	if db := d.Tier("db"); db.PreparedExecs != 100 || db.PlanHits != 100 ||
		db.TextExecs != 0 || db.PlanMisses != 0 {
		t.Fatalf("prepared/plan-cache deltas: %+v", db)
	}
	if got := d.Tier("servlet").Pool.WaitNanos; got != 4e6 {
		t.Fatalf("pool wait delta = %d, want 4e6", got)
	}
	// Original snapshots are untouched.
	if after.Tier("web").Requests != 250 || before.Tier("web").Requests != 100 {
		t.Fatal("Delta mutated its inputs")
	}
}

func TestBottleneckChargesWaitDownstream(t *testing.T) {
	s := snap()
	// The servlet tier's db-client pool recorded wait time: the database
	// is what saturated, not the servlet holding the pool.
	if got := s.Bottleneck(); got != "db" {
		t.Fatalf("bottleneck = %q, want db (servlet's db pool queued)", got)
	}
	// Waits on the web tier's AJP pool instead indict the servlet tier.
	s.Tiers[1].Pool.WaitNanos = 0
	s.Tiers[0].Pool.WaitNanos = 3e6
	if got := s.Bottleneck(); got != "servlet" {
		t.Fatalf("bottleneck = %q, want servlet (web's AJP pool queued)", got)
	}
	// With no pool ever waiting anywhere, fall back to work volume.
	s.Tiers[0].Pool.WaitNanos = 0
	if got := s.Bottleneck(); got != "web" {
		t.Fatalf("bottleneck = %q, want web (most requests)", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := snap()
	back, err := Parse(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if back.Arch != s.Arch || len(back.Tiers) != 3 {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Tier("servlet").Pool.WaitNanos != 5e6 {
		t.Fatalf("pool stats lost: %+v", back.Tier("servlet").Pool)
	}
}

func TestFormatMarksBottleneck(t *testing.T) {
	out := snap().Format()
	if !strings.Contains(out, "bottleneck: db") {
		t.Fatalf("missing bottleneck line:\n%s", out)
	}
	if !strings.Contains(out, "*db") {
		t.Fatalf("bottleneck tier not marked:\n%s", out)
	}
	if !strings.Contains(out, "db execs: 70 prepared / 20 text") ||
		!strings.Contains(out, "plan cache: 85 hits / 5 misses") {
		t.Fatalf("missing prepared/plan-cache line:\n%s", out)
	}
	// A cache that hit more than it missed qualifies the verdict: the tiers
	// below saw only the traffic it let through.
	const hot = "bottleneck: db (caches hot: tier load is post-cache)"
	if strings.Contains(out, hot) {
		t.Fatalf("caches-hot qualifier with no cache traffic:\n%s", out)
	}
	s := snap()
	s.Tiers[1].QueryCacheHits, s.Tiers[1].QueryCacheMisses = 3, 1
	if out := s.Format(); !strings.Contains(out, hot) {
		t.Fatalf("missing caches-hot qualifier:\n%s", out)
	}
}

func TestBottleneckChargesTimeoutsDownstream(t *testing.T) {
	s := snap()
	// A quiet pool that nonetheless burned time on expired deadlines: the
	// database was unresponsive, and the verdict names it with the
	// timing-out qualifier.
	s.Tiers[1].Pool.WaitNanos = 0
	s.Tiers[1].Pool.OpTimeouts = 4
	s.Tiers[1].Pool.TimeoutNanos = 8e8
	if got := s.Bottleneck(); got != "db" {
		t.Fatalf("bottleneck = %q, want db (servlet's db pool timing out)", got)
	}
	out := s.Format()
	if !strings.Contains(out, "bottleneck: db (timing out)") {
		t.Fatalf("missing timing-out verdict:\n%s", out)
	}
	if !strings.Contains(out, "servlet->db faults: 4 op timeouts") {
		t.Fatalf("missing fault line:\n%s", out)
	}
}

func TestDeltaAndFormatDegradedCounters(t *testing.T) {
	before := snap()
	before.Tiers[1].SlowEjections = 1
	after := snap()
	after.Tiers[1].SlowEjections = 3
	after.Tiers[1].Pool.WaitTimeouts = 5

	if sv := after.Delta(before).Tier("servlet"); sv.SlowEjections != 2 {
		t.Fatalf("slow-ejection delta = %d, want 2", sv.SlowEjections)
	}
	out := after.Format()
	if !strings.Contains(out, "servlet cluster health: 3 slow ejections\n") {
		t.Fatalf("missing cluster-health line:\n%s", out)
	}
	if !strings.Contains(out, "5 pool-wait timeouts\n") {
		t.Fatalf("missing pool fault counters:\n%s", out)
	}
}
