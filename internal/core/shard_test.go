package core

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/workload"
)

// Sharded-database coverage: the lab with DBShards > 1 runs the same
// stack over a horizontally partitioned tier (DESIGN.md §9) — the
// write-heavy auction tables split across shard groups by the
// auction.ShardBy map while users/categories/regions replicate globally.

// shardOfID returns the shard a strided AUTO_INCREMENT id belongs to:
// shard s hands out ids congruent to s+1 modulo the shard count.
func shardOfID(id int64, shards int) int {
	return int(((id-1)%int64(shards) + int64(shards)) % int64(shards))
}

// TestShardedWorkload is the acceptance run: the full bidding mix
// completes against a 2-shard tier, the bid rows are physically
// partitioned by the strided id discipline, and the telemetry carries
// the per-shard routing section.
func TestShardedWorkload(t *testing.T) {
	for _, a := range []arch.Arch{arch.ServletSync, arch.EJB} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			lab, err := Start(Config{
				Arch: a, Benchmark: arch.Auction,
				Seed: 3, DBShards: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer lab.Close()
			rep, err := lab.Run(workload.Config{
				Clients: 6, Mix: "bidding",
				ThinkMean: time.Millisecond, SessionMean: time.Second,
				RampUp: 30 * time.Millisecond, Measure: 300 * time.Millisecond,
				Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Interactions == 0 {
				t.Fatal("no interactions completed")
			}
			if rep.Errors > rep.Interactions/10 {
				t.Fatalf("error rate too high: %d errors / %d completions", rep.Errors, rep.Interactions)
			}

			// Rows are physically partitioned: each shard holds only ids of
			// its own congruence class, and both shards hold some.
			for shard := 0; shard < 2; shard++ {
				sess := lab.ReplicaDB(shard).NewSession()
				res, err := sess.Exec("SELECT id FROM bids")
				if err != nil {
					t.Fatal(err)
				}
				sess.Close()
				if len(res.Rows) == 0 {
					t.Fatalf("shard %d holds no bids; partitioning routed nothing there", shard)
				}
				for _, row := range res.Rows {
					if id := row[0].AsInt(); shardOfID(id, 2) != shard {
						t.Fatalf("bid id %d landed on shard %d, want %d", id, shard, shardOfID(id, 2))
					}
				}
			}

			// The cluster client reports the shard topology and the routing
			// split: pinned statements dominated, scatter reads happened
			// (searches span every shard).
			ccs := lab.Cluster().ClientStats()
			if ccs.Shards != 2 {
				t.Fatalf("ClientStats.Shards = %d, want 2", ccs.Shards)
			}
			if ccs.ShardSingle == 0 {
				t.Error("no single-shard statements routed")
			}
			if ccs.ShardScatter == 0 {
				t.Error("no scatter-gather reads routed")
			}

			// Telemetry carries the per-shard replica section and the shard
			// counters on the app tier.
			if rep.Tiers == nil || len(rep.Tiers.Replicas) != 2 {
				t.Fatalf("report missing per-shard telemetry: %+v", rep.Tiers)
			}
			for i, r := range rep.Tiers.Replicas {
				if r.Shard != i {
					t.Errorf("replica %d reports shard %d, want %d", i, r.Shard, i)
				}
				if r.Reads == 0 && r.Writes == 0 {
					t.Errorf("shard %d routed nothing over the window: %+v", i, r)
				}
			}
			for _, tier := range rep.Tiers.Tiers {
				if tier.Name == "servlet" || tier.Name == "ejb" {
					if tier.Shards == 2 && tier.ShardSingle > 0 {
						return
					}
				}
			}
			t.Error("no app tier reported the shard counters")
		})
	}
}

// TestShardedTxnWorkload drives the bookstore's checkout-bearing mix —
// the order path is the sharded one there — and asserts cross-shard
// transactions actually exercised two-phase commit. The non-sync servlet
// arch is the transactional one: its write sections run inside database
// transactions (sync archs serialize through the container lock manager
// and never open one).
func TestShardedTxnWorkload(t *testing.T) {
	t.Parallel()
	lab, err := Start(Config{
		Arch: arch.Servlet, Benchmark: arch.Bookstore,
		Seed: 5, DBShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	rep, err := lab.Run(workload.Config{
		Clients: 6, Mix: "ordering",
		ThinkMean: time.Millisecond, SessionMean: time.Second,
		RampUp: 30 * time.Millisecond, Measure: 400 * time.Millisecond,
		Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interactions == 0 {
		t.Fatal("no interactions completed")
	}
	if rep.Errors > rep.Interactions/10 {
		t.Fatalf("error rate too high: %d errors / %d completions", rep.Errors, rep.Interactions)
	}
	// The checkout transaction updates the global items stock alongside
	// the customer's sharded order rows, so it must commit via 2PC.
	if ccs := lab.Cluster().ClientStats(); ccs.Shard2PCTxns == 0 {
		t.Errorf("no cross-shard 2PC transactions committed: %+v", ccs)
	}
}

// assertShardReplicasIdentical compares the given tables row by row
// across each shard group's replicas — the ROWA invariant holds per
// shard, never across shards.
func assertShardReplicasIdentical(t *testing.T, lab *Lab, shards, replicasPerShard int, tables []string) {
	t.Helper()
	for s := 0; s < shards; s++ {
		base := s * replicasPerShard
		want := replicaTableDump(t, lab, base, tables)
		for r := 1; r < replicasPerShard; r++ {
			if got := replicaTableDump(t, lab, base+r, tables); got != want {
				t.Fatalf("shard %d replica %d diverged:\n%s\nvs replica 0:\n%s", s, r, got, want)
			}
		}
	}
}

// TestChaosMatrixShardAxis extends the PR-7 chaos matrix with the shard
// axis: a 2-shard × 2-replica tier loses one shard's replica link
// mid-workload (stall, then reset), keeps serving within bounds, and
// after heal + rejoin every shard's replicas are row-for-row identical —
// a fault inside one shard group must never leak divergence into any
// group.
func TestChaosMatrixShardAxis(t *testing.T) {
	cases := []struct {
		name string
		kind chaos.Kind
	}{
		{"shard-stall", chaos.Stall},
		{"shard-reset", chaos.Reset},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			lab := chaosLab(t, Config{DBShards: 2})
			// Backend layout: [s0r0 s0r1 s1r0 s1r1] — fault shard 1's
			// first replica, global index 2.
			const victim = 2
			done := make(chan struct{})
			inject := func() {
				defer close(done)
				time.Sleep(100 * time.Millisecond)
				lab.DBProxy(victim).Set(chaos.Fault{Kind: tc.kind})
				time.Sleep(200 * time.Millisecond)
				lab.DBProxy(victim).Clear()
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
				t.Fatal("no interactions completed under shard chaos")
			}
			if rep.Errors > rep.Interactions/3 {
				t.Fatalf("error rate too high under %s: %d errors / %d completions",
					tc.name, rep.Errors, rep.Interactions)
			}
			if err := lab.RejoinAll(); err != nil {
				t.Fatalf("rejoin after heal: %v", err)
			}
			if cl := lab.Cluster(); cl.Healthy() != cl.Replicas() {
				t.Fatalf("healthy %d / %d after RejoinAll", cl.Healthy(), cl.Replicas())
			}
			assertShardReplicasIdentical(t, lab, 2, 2, auctionChaosTables)
			// The workload's writes really did keep flowing to both shard
			// groups across the fault window.
			for shard := 0; shard < 2; shard++ {
				sess := lab.ReplicaDB(shard * 2).NewSession()
				res, err := sess.Exec("SELECT COUNT(*) FROM bids")
				if err != nil {
					t.Fatal(err)
				}
				sess.Close()
				if res.Rows[0][0].AsInt() == 0 {
					t.Errorf("shard %d holds no bids after the run", shard)
				}
			}
		})
	}
}
