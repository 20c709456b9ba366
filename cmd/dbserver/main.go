// Command dbserver runs the SQL database tier standalone: it creates and
// populates a benchmark schema and serves the wire protocol, the role MySQL
// plays on the paper's database machine — or one replica of it, when the
// stack runs the read-one-write-all cluster.
//
// A replica can seed itself deterministically (-seed; identical seeds give
// bit-identical replicas, AUTO_INCREMENT included) or join a running
// cluster by syncing a peer's data over the wire (-peers). SIGTERM drains:
// in-flight statements finish before the listeners close.
//
// With -data the replica is durable: commits go through a write-ahead log
// under that directory (group commit: a commit waits for one fsync, two if
// it arrives while one is in flight; checkpoint-and-rotate every
// -checkpoint-every log bytes), and a restart
// over a non-empty directory recovers — checkpoint load plus log replay,
// torn tail truncated — instead of repopulating. A recovered replica with
// -peers catches up through the WAL delta fast path when its history is
// still a prefix of a peer's log, full copy otherwise (cluster.SyncAuto).
// $SQLDB_WALFAULT=point:action[:N] arms a crash point for recovery drills
// (see sqldb/walfault).
//
// Usage:
//
//	dbserver -addr :7306 -benchmark bookstore|auction [-scale tiny|default|paper]
//	         [-seed N] [-replica I] [-peers host:7306,host:7307] [-grace 5s]
//	         [-data DIR] [-checkpoint-every N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/sqldb/walfault"
	"repro/internal/sqldb/wire"
	"repro/internal/stack"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7306", "listen address")
		benchmark = flag.String("benchmark", "bookstore", "bookstore or auction")
		scale     = flag.String("scale", "default", "tiny, default, paper, or empty (no schema or data: a shard backend, to be seeded through a sharded client — see cmd/dbinit)")
		seed      = flag.Int64("seed", 1, "population seed")
		replica   = flag.Int("replica", 0, "replica id, for logs and telemetry")
		peers     = flag.String("peers", "", "comma-separated peer replicas to sync initial data from (skips -seed population)")
		peerOp    = flag.Duration("peer-timeout", 0, "dial and per-statement deadline against sync peers (0: transport defaults, negative: none)")
		syncTO    = flag.Duration("sync-timeout", 2*time.Minute, "wall-clock budget for the whole startup data sync from a peer (0: unbounded)")
		grace     = flag.Duration("grace", 5*time.Second, "SIGTERM drain grace for in-flight sessions")
		data      = flag.String("data", "", "data directory for the write-ahead log; non-empty state there recovers instead of repopulating (empty: purely in-memory)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "checkpoint-and-rotate after this many log bytes (0: the engine default, 8MiB; negative: never)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, fmt.Sprintf("replica[%d] ", *replica), log.LstdFlags)

	fault, err := walfault.FromEnv(os.Exit)
	if err != nil {
		logger.Fatal(err)
	}
	walOpts := sqldb.WALOptions{
		Dir:             *data,
		CheckpointBytes: *ckptEvery,
		Fault:           fault,
	}

	// -scale empty serves a bare engine: a shard group's backend must not
	// self-populate (every backend would hold every row, and its ids would
	// not be strided) — schema and data arrive over the wire from a sharded
	// client instead (cmd/dbinit, or any app tier's population path).
	empty := *scale == "empty"
	appScale := *scale
	if empty {
		appScale = "default" // unused: nothing is populated
	}
	app, err := stack.AppByName(*benchmark, appScale)
	if err != nil {
		logger.Fatalf("%v; dbserver also accepts -scale empty", err)
	}

	// Initial data (stack.OpenDB runs it only on a fresh boot, before the
	// log attaches): replay a live peer when joining an existing cluster,
	// otherwise populate deterministically from the seed. When -peers was
	// given, failing to sync is fatal: seeding instead would bring up a
	// replica that silently diverges from a cluster that has moved past
	// the seed state.
	peerList := cluster.ParseDSN(*peers)
	var fill func(sqldb.Execer) error
	switch {
	case len(peerList) > 0:
		fill = func(local sqldb.Execer) error {
			if !empty {
				if err := app.CreateSchema(local); err != nil {
					return err
				}
			}
			if !syncFromPeers(logger, local, peerList, *peerOp, *syncTO) {
				return fmt.Errorf("no peer in %q reachable; refusing to start from seed data", *peers)
			}
			return nil
		}
	case !empty:
		fill = func(local sqldb.Execer) error {
			logger.Printf("populating %s at %s scale...", app.Name, *scale)
			return app.Seed(local, *seed)
		}
	}
	db, info, err := stack.OpenDB(walOpts, fill)
	if err != nil {
		logger.Fatal(err)
	}
	if info.Recovered {
		// The directory already held a checkpoint or log segments: this is
		// a restart, and the disk — not the seed — is the source of truth.
		logger.Printf("recovered from %s: checkpoint lsn %d, %d statements replayed to lsn %d (torn tail: %v)",
			*data, info.CheckpointLSN, info.ReplayedStmts, info.ReplayLSN, info.TornTail)
		// A recovered replica still syncs from its peers — it was down
		// while they kept committing — but through SyncAuto, which ships
		// only the missed WAL suffix when the histories still line up.
		if len(peerList) > 0 {
			sess := db.NewSession()
			ok := syncFromPeers(logger, sess, peerList, *peerOp, *syncTO)
			sess.Close()
			if !ok {
				logger.Fatalf("no peer in %q reachable; refusing to serve a stale recovered data set", *peers)
			}
		}
	} else if *data != "" {
		logger.Printf("write-ahead log at %s", *data)
	}

	srv := wire.NewServer(db, logger)
	bound, err := srv.Listen(*addr)
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Printf("dbserver: replica %d, %s database ready on %s (tables: %v)\n",
		*replica, *benchmark, bound, db.TableNames())

	// SIGTERM / SIGINT drain in-flight sessions before closing listeners,
	// so CI runs and cluster peers shut down without leaking connections.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	got := <-sig
	logger.Printf("%s: draining (grace %s)...", got, *grace)
	srv.Shutdown(*grace)
	// Flush and close the log last: every drained session's commit is
	// already durable (acks follow fsync), this just writes and fsyncs any
	// straggling unacked bytes.
	if err := db.CloseWAL(); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("drained, bye")
}

// syncFromPeers replays the first reachable peer's data into the local
// database — the startup replica-sync path, bounded so a stalled peer
// fails over to the next one instead of wedging startup. A durable restart
// takes the WAL delta fast path when its log is still a prefix of the
// peer's; everything else gets the full table copy (cluster.SyncAuto). It
// reports whether a peer provided the data.
func syncFromPeers(logger *log.Logger, local sqldb.Execer, peers []string, peerOp, budget time.Duration) bool {
	for _, peer := range peers {
		conn, err := wire.DialT(peer, pool.Timeouts{Dial: peerOp, Op: peerOp}.WithDefaults())
		if err != nil {
			logger.Printf("peer %s unreachable: %v", peer, err)
			continue
		}
		logger.Printf("syncing initial data from peer %s...", peer)
		st, err := cluster.SyncAuto(conn, local, budget)
		conn.Close()
		if err != nil {
			logger.Printf("sync from %s failed: %v", peer, err)
			continue
		}
		if st.Delta {
			logger.Printf("caught up from %s: %d missed statements shipped off its log", peer, st.Stmts)
		} else {
			logger.Printf("synced %d tables / %d rows from %s", st.Tables, st.Rows, peer)
		}
		return true
	}
	return false
}
