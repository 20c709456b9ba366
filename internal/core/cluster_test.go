package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/sqldb"
	"repro/internal/workload"
)

// Clustered-database coverage: the lab with DBReplicas > 1 runs the same
// stack over a read-one-write-all database tier (DESIGN.md §7).

// TestReadOnlyMixOpensNoTransaction pins what makes a read-only transaction
// kind unnecessary: the auction browsing mix, which gives no write
// interaction any weight, opens no database transaction and broadcasts
// nothing, on the servlet architectures and on EJB, whose lazy demarcation
// commits every business method without opening one.
func TestReadOnlyMixOpensNoTransaction(t *testing.T) {
	for _, a := range []arch.Arch{arch.Servlet, arch.ServletSync, arch.EJB} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			lab, err := Start(Config{Arch: a, Benchmark: arch.Auction, Seed: 3, DBReplicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer lab.Close()
			before := lab.Telemetry()
			rep, err := lab.Run(workload.Config{
				Clients: 4, Mix: "browsing",
				ThinkMean: time.Millisecond, SessionMean: time.Second,
				Measure: 300 * time.Millisecond, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Interactions == 0 {
				t.Fatal("no interactions completed")
			}
			d := lab.Telemetry().Delta(before)
			if db := d.Tier("db"); db.Commits != 0 || db.Aborts != 0 {
				t.Errorf("replicas ended %d / %d transactions (commits / aborts) under a read-only mix, want 0", db.Commits, db.Aborts)
			}
			for _, tier := range d.Tiers {
				if tier.Broadcasts != 0 {
					t.Errorf("%s tier broadcast %d statements under a read-only mix", tier.Name, tier.Broadcasts)
				}
			}
			if ejb := d.Tier("ejb"); ejb != nil && (ejb.Commits == 0 || ejb.Commits != ejb.ReadOnlyTxns) {
				t.Errorf("ejb tier: %d commits, %d read-only; want every commit read-only", ejb.Commits, ejb.ReadOnlyTxns)
			}
		})
	}
}

// TestClusterWorkloadReadsBothReplicas is the acceptance run: an emulator
// workload over 2 replicas completes with reads observed on both replicas and
// consistent state across them.
func TestClusterWorkloadReadsBothReplicas(t *testing.T) {
	for _, a := range []arch.Arch{arch.ServletSync, arch.EJB} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			lab, err := Start(Config{
				Arch: a, Benchmark: arch.Auction,
				Seed: 3, DBReplicas: 2,
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
			for _, r := range lab.Telemetry().Replicas {
				if r.Queries == 0 {
					t.Errorf("replica %d served no statements; reads did not spread", r.ID)
				}
			}
			// The report's telemetry carries the per-replica section.
			if rep.Tiers == nil || len(rep.Tiers.Replicas) != 2 {
				t.Fatalf("report missing per-replica telemetry: %+v", rep.Tiers)
			}
			for _, r := range rep.Tiers.Replicas {
				if r.Reads == 0 {
					t.Errorf("replica %d routed no reads over the window: %+v", r.ID, r)
				}
			}
			// Writes broadcast: both replicas hold identical bid state.
			bids := func(replica int) string {
				var out []sqldb.Row
				for _, q := range []string{"SELECT COUNT(*) FROM bids", "SELECT id FROM bids ORDER BY id DESC LIMIT 1"} {
					res, err := lab.ReplicaDB(replica).NewSession().Exec(q)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, res.Rows...)
				}
				return fmt.Sprint(out)
			}
			if r0, r1 := bids(0), bids(1); r0 != r1 {
				t.Fatalf("replicas diverged: bids %v vs %v", r0, r1)
			}
		})
	}
}

// TestClusterSurvivesReplicaFailover kills one of two replicas mid-
// workload: the run must keep completing interactions on the survivor.
func TestClusterSurvivesReplicaFailover(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.ServletSync, Benchmark: arch.Auction,
		Seed: 3, DBReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()

	killed := make(chan struct{})
	rep, err := lab.Run(workload.Config{
		Clients: 6, Mix: "bidding",
		ThinkMean: time.Millisecond, SessionMean: time.Second,
		RampUp: 30 * time.Millisecond, Measure: 500 * time.Millisecond,
		Seed: 13,
		OnMeasureStart: func() {
			go func() {
				time.Sleep(100 * time.Millisecond)
				lab.StopReplica(1) // fault injection mid-window
				close(killed)
			}()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	if rep.Interactions == 0 {
		t.Fatal("no interactions completed across the failover")
	}
	// The stack must have kept serving after the kill: drive it again now
	// that only one replica is alive.
	after, err := lab.Run(workload.Config{
		Clients: 4, Mix: "bidding",
		ThinkMean: time.Millisecond, SessionMean: time.Second,
		Measure: 200 * time.Millisecond, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Interactions == 0 || after.Errors > after.Interactions/10 {
		t.Fatalf("survivor not serving cleanly: %d completions, %d errors",
			after.Interactions, after.Errors)
	}
	cl := lab.Cluster()
	if cl == nil {
		t.Fatal("no cluster client")
	}
	if h := cl.Healthy(); h != 1 {
		t.Fatalf("healthy replicas %d, want 1", h)
	}
	rs := cl.ReplicaStats()
	if rs[1].Healthy || rs[1].Ejections == 0 {
		t.Fatalf("replica 1 should be ejected: %+v", rs[1])
	}
}

// TestClusterTelemetryDelta: the /status snapshot and its windowed delta
// must both carry the replica section.
func TestClusterTelemetryDelta(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.PHP, Benchmark: arch.Bookstore,
		Seed: 2, DBReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	before := lab.Telemetry()
	if len(before.Replicas) != 2 {
		t.Fatalf("snapshot has %d replicas, want 2", len(before.Replicas))
	}
	// Populate already ran; route some traffic and window it.
	cl := lab.Cluster()
	for i := 0; i < 6; i++ {
		if _, err := cl.Exec("SELECT id FROM customers WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	delta := lab.Telemetry().Delta(before)
	var reads int64
	for _, r := range delta.Replicas {
		reads += r.Reads
		if r.Writes != 0 {
			t.Errorf("windowed writes %d on replica %d, want 0", r.Writes, r.ID)
		}
	}
	if reads != 6 {
		t.Fatalf("windowed reads %d, want 6", reads)
	}
}

// replicaTableDump renders one replica's table contents row by row.
func replicaTableDump(t *testing.T, lab *Lab, replica int, tables []string) string {
	t.Helper()
	sess := lab.ReplicaDB(replica).NewSession()
	defer sess.Close()
	var b strings.Builder
	for _, table := range tables {
		res, err := sess.Exec("SELECT * FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", table)
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "%v\n", row)
		}
	}
	return b.String()
}

// assertReplicasIdentical compares the given tables row by row across every
// replica.
func assertReplicasIdentical(t *testing.T, lab *Lab, replicas int, tables []string) string {
	t.Helper()
	want := replicaTableDump(t, lab, 0, tables)
	for i := 1; i < replicas; i++ {
		if got := replicaTableDump(t, lab, i, tables); got != want {
			t.Fatalf("replica %d diverged:\n%s\nvs replica 0:\n%s", i, got, want)
		}
	}
	return want
}

var bookstoreTxTables = []string{"customers", "items", "orders", "order_line", "credit_info"}

// TestRollbackBookstoreCheckoutE2E runs the checkout transaction's exact
// statement sequence against a 2-replica cluster through the full wire
// path, fails it mid-cart, and asserts every replica is byte-identical to
// the pre-transaction state (run with -race).
func TestRollbackBookstoreCheckoutE2E(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.Servlet, Benchmark: arch.Bookstore,
		Seed: 5, DBReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	cl := lab.Cluster()

	before := assertReplicasIdentical(t, lab, 2, bookstoreTxTables)
	failure := fmt.Errorf("payment authorization declined")
	err = cl.WithTx([]string{"credit_info", "items", "order_line", "orders"}, func(tx *cluster.Session) error {
		ores, err := tx.Exec(
			`INSERT INTO orders (customer_id, o_date, subtotal, total, status)
			 VALUES (?, ?, ?, ?, ?)`,
			sqldb.Int(1), sqldb.Int(12000), sqldb.Float(30), sqldb.Float(30), sqldb.String("PENDING"))
		if err != nil {
			return err
		}
		orderID := ores.LastInsertID
		if _, err := tx.Exec(
			"INSERT INTO order_line (order_id, item_id, qty, discount) VALUES (?, ?, ?, ?)",
			sqldb.Int(orderID), sqldb.Int(1), sqldb.Int(2), sqldb.Float(0)); err != nil {
			return err
		}
		if _, err := tx.Exec(
			"UPDATE items SET stock = stock - ?, total_sold = total_sold + ? WHERE id = ?",
			sqldb.Int(2), sqldb.Int(2), sqldb.Int(1)); err != nil {
			return err
		}
		return failure // the cart fails before credit_info lands
	})
	if err != failure {
		t.Fatalf("WithTx error %v, want the injected failure", err)
	}
	after := assertReplicasIdentical(t, lab, 2, bookstoreTxTables)
	if after != before {
		t.Fatalf("abort did not restore pre-transaction state:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// The stack keeps serving checkouts after the abort, reusing the ids.
	err = cl.WithTx([]string{"credit_info", "items", "order_line", "orders"}, func(tx *cluster.Session) error {
		_, err := tx.Exec(
			`INSERT INTO orders (customer_id, o_date, subtotal, total, status)
			 VALUES (?, ?, ?, ?, ?)`,
			sqldb.Int(2), sqldb.Int(12000), sqldb.Float(10), sqldb.Float(10), sqldb.String("PENDING"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	assertReplicasIdentical(t, lab, 2, bookstoreTxTables)
}

// TestRollbackAuctionBidRaceE2E races concurrent storeBid transactions on
// one hot item against a 2-replica cluster, aborting some: the replicas
// must stay row-for-row identical and reflect committed bids only.
func TestRollbackAuctionBidRaceE2E(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.Servlet, Benchmark: arch.Auction,
		Seed: 5, DBReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	cl := lab.Cluster()
	tables := []string{"items", "bids"}
	abort := fmt.Errorf("outbid")

	preSess := lab.ReplicaDB(0).NewSession()
	pre, err := preSess.Exec("SELECT nb_bids FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	initialBids := pre.Rows[0][0].AsInt()
	preSess.Close()

	const bidders, bidsEach = 5, 6
	var wg sync.WaitGroup
	var committed atomic.Int64
	for b := 0; b < bidders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < bidsEach; i++ {
				err := cl.WithTx([]string{"bids", "items"}, func(tx *cluster.Session) error {
					res, err := tx.Exec("SELECT max_bid FROM items WHERE id = ?", sqldb.Int(1))
					if err != nil {
						return err
					}
					if len(res.Rows) == 0 {
						return fmt.Errorf("no item")
					}
					bid := res.Rows[0][0].AsFloat() + 1
					if _, err := tx.Exec(
						`INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date)
						 VALUES (?, ?, ?, ?, 1, 12006)`,
						sqldb.Int(1), sqldb.Int(int64(b+1)), sqldb.Float(bid), sqldb.Float(bid*1.1)); err != nil {
						return err
					}
					if _, err := tx.Exec(
						"UPDATE items SET nb_bids = nb_bids + 1, max_bid = ? WHERE id = ?",
						sqldb.Float(bid), sqldb.Int(1)); err != nil {
						return err
					}
					if (b+i)%3 == 0 {
						return abort
					}
					committed.Add(1)
					return nil
				})
				if err != nil && err != abort {
					t.Error(err)
					return
				}
			}
		}(b)
	}
	wg.Wait()

	assertReplicasIdentical(t, lab, 2, tables)
	sess := lab.ReplicaDB(0).NewSession()
	defer sess.Close()
	res, err := sess.Exec("SELECT nb_bids FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt() - initialBids; got != committed.Load() {
		t.Fatalf("nb_bids grew by %d, want %d committed bids", got, committed.Load())
	}
}

// TestTxnReplicaKillAndRejoinE2E is the deterministic fault-injection run:
// a replica dies mid-transaction-broadcast, the survivors commit
// identically, and the restarted replica syncs the committed state on
// Rejoin — no half-applied transactions anywhere.
func TestTxnReplicaKillAndRejoinE2E(t *testing.T) {
	lab, err := Start(Config{
		Arch: arch.Servlet, Benchmark: arch.Auction,
		Seed: 7, DBReplicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	cl := lab.Cluster()
	tables := []string{"items", "bids", "users"}

	err = cl.WithTx([]string{"bids", "items"}, func(tx *cluster.Session) error {
		if _, err := tx.Exec(
			`INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date)
			 VALUES (1, 1, 55, 60, 1, 12006)`); err != nil {
			return err
		}
		lab.StopReplica(2) // dies between the transaction's statements
		_, err := tx.Exec("UPDATE items SET nb_bids = nb_bids + 1, max_bid = 55 WHERE id = 1")
		return err
	})
	if err != nil {
		t.Fatalf("transaction must commit on the survivors: %v", err)
	}
	if h := cl.Healthy(); h != 2 {
		t.Fatalf("healthy %d, want 2", h)
	}
	want := assertReplicasIdentical(t, lab, 2, tables)

	// The dead replica rolled its half back when its connections dropped;
	// after restart + rejoin (data sync) it matches the survivors exactly.
	if err := lab.RestartReplica(2); err != nil {
		t.Skipf("cannot rebind replica address: %v", err)
	}
	if err := cl.Rejoin(2, true); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got := replicaTableDump(t, lab, 2, tables); got != want {
		t.Fatalf("rejoined replica diverged:\n%s\nvs\n%s", got, want)
	}
	// And it participates in the next transaction.
	err = cl.WithTx([]string{"items"}, func(tx *cluster.Session) error {
		_, err := tx.Exec("UPDATE items SET max_bid = 77 WHERE id = 1")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	assertReplicasIdentical(t, lab, 3, tables)
}
