package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/sqldb/walfault"
	"repro/internal/workload"
)

// The WAL crash matrix: a durable database backend dies at a named crash
// point (or to a timed power cut) while the full stack is under load —
// (crash point × workload mix × replica count) — and every case asserts the
// same things: the run completes inside the chaos matrix's hard wall-clock
// bound, the backend restarts from its data directory alone (checkpoint
// load + log replay), and after Rejoin the database tier is row-for-row
// identical again. Clean server kills are covered by the failover tests and
// exact byte-prefix recovery by the sqldb subprocess tests; this matrix is
// the end-to-end kill-and-recover drill through the cluster client.

// walLab starts a durable configuration: every backend logs to its own
// directory under DBDataDir, with transport deadlines short enough that a
// crashed backend surfaces as a bounded error and gets ejected quickly.
func walLab(t *testing.T, cfg Config) *Lab {
	t.Helper()
	cfg.Arch = arch.ServletSync
	cfg.Benchmark = arch.Auction
	cfg.Seed = 3
	cfg.DBDataDir = t.TempDir()
	cfg.DBTimeouts = pool.Timeouts{Op: 250 * time.Millisecond, Wait: 300 * time.Millisecond}
	cfg.AppTimeouts = pool.Timeouts{Op: 500 * time.Millisecond}
	lab, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	return lab
}

// restartFromDiskOrSkip restarts the crashed backend from its data
// directory. Rebinding the original address can race the dying server's
// asynchronous shutdown, so bind failures retry briefly and only then skip;
// a recovery failure is always fatal.
func restartFromDiskOrSkip(t *testing.T, lab *Lab, i int) *sqldb.RecoveryInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := lab.RestartReplicaFromDisk(i)
		if err == nil {
			if !info.Recovered {
				t.Fatalf("restart found no state to recover: %+v", info)
			}
			return info
		}
		if strings.Contains(err.Error(), "recover replica") {
			t.Fatalf("recovery from disk failed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Skipf("cannot rebind replica address: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestWALCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is a torture test")
	}
	cases := []struct {
		name     string
		point    walfault.Point // "" = timed power cut, no crash-point hook
		after    int            // fire on the after-th hit
		mix      string
		replicas int
	}{
		{"pre-append/bidding/2", walfault.PreAppend, 10, "bidding", 2},
		{"post-append-pre-fsync/bidding/2", walfault.PostAppendPreFsync, 5, "bidding", 2},
		{"mid-checkpoint/bidding/2", walfault.MidCheckpoint, 1, "bidding", 2},
		{"mid-rotate/bidding/2", walfault.MidRotate, 1, "bidding", 2},
		{"power-cut/browsing/2", "", 0, "browsing", 2},
		{"pre-append/bidding/1", walfault.PreAppend, 10, "bidding", 1},
		{"post-append-pre-fsync/bidding/1", walfault.PostAppendPreFsync, 5, "bidding", 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			victim := tc.replicas - 1 // the sole backend, or the non-reference one
			cfg := Config{DBReplicas: tc.replicas}
			var hook *walfault.Hook
			if tc.point != "" {
				hook = walfault.New()
				cfg.DBWALFaults = map[int]*walfault.Hook{victim: hook}
			}
			lab := walLab(t, cfg)
			cl := lab.Cluster()

			// One serialized write before the fault so every log has a head
			// past the initial checkpoint.
			if _, err := cl.Exec("UPDATE items SET max_bid = 11 WHERE id = 1"); err != nil {
				t.Fatal(err)
			}

			// Arm after Start so the initial-attach checkpoint and rotate
			// don't consume the hit budget: the hook fires mid-workload. The
			// crash action is the sqldb power cut (everything unsynced drops)
			// plus an asynchronous server kill — the hook runs on a statement
			// or checkpoint goroutine, which must never wait on the server's
			// own shutdown.
			var fired atomic.Bool
			if hook != nil {
				w := lab.ReplicaDB(victim).WAL()
				hook.Set(tc.point, tc.after, func() {
					fired.Store(true)
					w.Crash()
					go lab.StopReplica(victim)
				})
			}
			done := make(chan struct{})
			inject := func() {
				defer close(done)
				time.Sleep(100 * time.Millisecond)
				switch tc.point {
				case "":
					fired.Store(true)
					if err := lab.CrashReplica(victim); err != nil {
						t.Errorf("power cut: %v", err)
					}
				case walfault.MidCheckpoint, walfault.MidRotate:
					// The checkpoint walks into the armed point and dies there.
					_ = lab.ReplicaDB(victim).Checkpoint()
				}
			}
			rep := runBounded(t, lab, workload.Config{
				Clients: 6, Mix: tc.mix,
				ThinkMean: time.Millisecond, SessionMean: time.Second,
				RampUp: 30 * time.Millisecond, Measure: 600 * time.Millisecond,
				Seed:           29,
				OnMeasureStart: func() { go inject() },
			})
			<-done
			if rep.Interactions == 0 {
				t.Fatal("no interactions completed around the crash")
			}
			// Append-point hooks fire off the workload's own writes; if the
			// window closed first, push serialized writes until the hook trips.
			for i := 0; i < 50 && !fired.Load(); i++ {
				_, _ = cl.Exec("UPDATE items SET max_bid = ? WHERE id = 1", sqldb.Float(float64(20+i)))
			}
			if !fired.Load() {
				t.Fatal("crash point never fired")
			}
			if tc.replicas == 1 {
				// A single-replica client never ejects (there is nothing to
				// fail over to), so just wait until the crash is observable:
				// writes through the stack fail on the dead backend.
				deadline := time.Now().Add(10 * time.Second)
				for {
					if _, err := cl.Exec("UPDATE items SET max_bid = 12 WHERE id = 1"); err != nil {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("writes kept succeeding after the crash")
					}
					time.Sleep(20 * time.Millisecond)
				}
				// Nothing to compare against and nothing to rejoin from: the
				// data directory alone must bring the tier back.
				restartFromDiskOrSkip(t, lab, victim)
				if err := cl.Rejoin(victim, false); err != nil {
					t.Fatalf("rejoin: %v", err)
				}
				after := runBounded(t, lab, workload.Config{
					Clients: 4, Mix: tc.mix,
					ThinkMean: time.Millisecond, SessionMean: time.Second,
					Measure: 300 * time.Millisecond, Seed: 31,
				})
				if after.Interactions == 0 || after.Errors > after.Interactions/10 {
					t.Fatalf("recovered backend not serving cleanly: %d completions, %d errors",
						after.Interactions, after.Errors)
				}
				// A lone backend has no per-replica telemetry section; the
				// tier aggregate must still show the recovery.
				if dt := lab.Telemetry().Tier("db"); dt == nil || dt.WALRecoveries < 1 {
					t.Fatalf("telemetry missed the recovery: %+v", dt)
				}
				return
			}

			// The crashed backend must end up ejected — keep a trickle of
			// writes flowing so the fan-out observes the dead transport.
			deadline := time.Now().Add(10 * time.Second)
			for cl.Healthy() != tc.replicas-1 {
				if time.Now().After(deadline) {
					t.Fatalf("crashed replica never ejected: healthy %d", cl.Healthy())
				}
				_, _ = cl.Exec("UPDATE items SET max_bid = 12 WHERE id = 1")
				time.Sleep(20 * time.Millisecond)
			}

			// Writes the victim misses while down, which the rejoin's copy
			// must carry over.
			for k := 0; k < 5; k++ {
				if _, err := cl.Exec("UPDATE items SET max_bid = ? WHERE id = 1",
					sqldb.Float(float64(50+k))); err != nil {
					t.Fatalf("write during outage: %v", err)
				}
			}

			info := restartFromDiskOrSkip(t, lab, victim)
			if info.ReplayedStmts == 0 && info.CheckpointLSN == 0 {
				t.Errorf("recovery replayed nothing: %+v", info)
			}
			if err := cl.Rejoin(victim, true); err != nil {
				t.Fatalf("rejoin: %v", err)
			}
			// Every rejoin is the full copy: exactly one, this one.
			if st := cl.ClientStats(); st.WALFullSyncs != 1 {
				t.Fatalf("rejoin copies = %d, want 1: %+v", st.WALFullSyncs, st)
			}
			assertReplicasIdentical(t, lab, tc.replicas, auctionChaosTables)

			// The rejoined backend takes the next write and the recovery is
			// visible in telemetry.
			if _, err := cl.Exec("UPDATE items SET max_bid = 99 WHERE id = 1"); err != nil {
				t.Fatal(err)
			}
			assertReplicasIdentical(t, lab, tc.replicas, auctionChaosTables)
			tel := lab.Telemetry()
			dt := tel.Tier("db")
			if dt == nil || dt.WALRecoveries < 1 || tel.Replicas[victim].WALRecoveries < 1 {
				t.Fatalf("telemetry missed the recovery: tier %+v replicas %+v", dt, tel.Replicas)
			}
			if dt.WALAppends == 0 || dt.WALFsyncs == 0 {
				t.Fatalf("tier WAL counters empty: %+v", dt)
			}
		})
	}
}
