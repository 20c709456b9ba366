package cluster

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sqldb"
)

// cacheStats pulls just the query-cache counters out of ClientStats.
func cacheStats(c *Client) (hits, misses, invalidations, bypasses int64) {
	cs := c.ClientStats()
	return cs.QueryCacheHits, cs.QueryCacheMisses, cs.QueryCacheInvalidations, cs.QueryCacheBypasses
}

func queryQty(t *testing.T, ex sqldb.Execer, id int) int64 {
	t.Helper()
	res, err := ex.Exec("SELECT qty FROM items WHERE id = ?", sqldb.Int(int64(id)))
	if err != nil {
		t.Fatalf("SELECT qty id=%d: %v", id, err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("SELECT qty id=%d: %d rows", id, len(res.Rows))
	}
	return res.Rows[0][0].AsInt()
}

// TestQueryCacheHitAndInvalidate: the second identical read must be served
// from the cache; a write to the referenced table must invalidate exactly
// that entry and the next read must see the new data.
func TestQueryCacheHitAndInvalidate(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{QueryCache: 32})

	if got := queryQty(t, c, 1); got != 100 {
		t.Fatalf("qty = %d, want 100", got)
	}
	if got := queryQty(t, c, 1); got != 100 {
		t.Fatalf("qty = %d, want 100", got)
	}
	hits, misses, _, _ := cacheStats(c)
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}

	mustExec(t, c, "UPDATE items SET qty = 42 WHERE id = 1")
	if got := queryQty(t, c, 1); got != 42 {
		t.Fatalf("qty after write = %d, want 42 (stale cache hit?)", got)
	}
	hits, misses, invals, _ := cacheStats(c)
	if hits != 1 || misses != 2 || invals != 1 {
		t.Fatalf("hits=%d misses=%d invalidations=%d, want 1/2/1", hits, misses, invals)
	}

	// Distinct args are distinct entries: id=2 was never written, but its
	// entry shares the items stamp, so it too revalidates (miss), then hits.
	if got := queryQty(t, c, 2); got != 100 {
		t.Fatalf("qty id=2 = %d, want 100", got)
	}
	if got := queryQty(t, c, 2); got != 100 {
		t.Fatalf("qty id=2 = %d, want 100", got)
	}
	hits, _, _, _ = cacheStats(c)
	if hits != 2 {
		t.Fatalf("hits=%d, want 2", hits)
	}
}

// TestQueryCacheWriteOtherTableKeepsEntry: writes to an unrelated table
// must not invalidate cached reads of this one — invalidation is
// per-table, not a wholesale flush.
func TestQueryCacheWriteOtherTableKeepsEntry(t *testing.T) {
	reps := startReplicas(t, 1)
	c := newTestClient(t, reps, Config{QueryCache: 32})

	queryQty(t, c, 1) // fill
	mustExec(t, c, "INSERT INTO audit (item, delta) VALUES (?, ?)", sqldb.Int(1), sqldb.Int(-1))
	queryQty(t, c, 1) // must still hit
	hits, misses, invals, _ := cacheStats(c)
	if hits != 1 || misses != 1 || invals != 0 {
		t.Fatalf("hits=%d misses=%d invalidations=%d, want 1/1/0", hits, misses, invals)
	}
}

// The three version-publication rules of a transaction, each at every
// replica count: a rollback publishes nothing, a commit publishes once, and a
// write that died in transport is published when the session is given up.

// TestQueryCacheAbortPublishesNothing: a rolled-back transaction must not
// invalidate cache entries or advance the page-cache content epoch —
// nothing committed, so nothing changed.
func TestQueryCacheAbortPublishesNothing(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{QueryCache: 32})

		queryQty(t, c, 1) // fill
		epoch0 := c.ContentEpoch()

		s, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Begin("items"); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "UPDATE items SET qty = -999 WHERE id = 1")
		if err := s.Rollback(); err != nil {
			t.Fatal(err)
		}
		c.Put(s, false)

		if got := c.ContentEpoch(); got != epoch0 {
			t.Fatalf("ContentEpoch advanced %d -> %d across an aborted txn", epoch0, got)
		}
		if got := queryQty(t, c, 1); got != 100 {
			t.Fatalf("qty after abort = %d, want 100", got)
		}
		hits, _, invals, _ := cacheStats(c)
		if hits != 1 || invals != 0 {
			t.Fatalf("hits=%d invalidations=%d after abort, want 1/0", hits, invals)
		}
	})
}

// TestQueryCacheCommitAdvancesEpoch: the same transaction, committed, must
// invalidate and advance the epoch — once for the transaction, not once per
// statement.
func TestQueryCacheCommitAdvancesEpoch(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{QueryCache: 32})

		queryQty(t, c, 1)
		epoch0 := c.ContentEpoch()
		err := c.WithTx([]string{"items"}, func(tx *Session) error {
			if _, err := tx.Exec("UPDATE items SET qty = 6 WHERE id = 1"); err != nil {
				return err
			}
			_, err := tx.Exec("UPDATE items SET qty = 7 WHERE id = 1")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.ContentEpoch(); got != epoch0+1 {
			t.Fatalf("ContentEpoch %d after a committed txn at %d, want one bump", got, epoch0)
		}
		if got := queryQty(t, c, 1); got != 7 {
			t.Fatalf("qty after commit = %d, want 7", got)
		}
	})
}

// TestQueryCacheTransportFailedWritePublishes: a transactional write whose
// broadcast died in transport cannot be proven not to have applied, so its
// tables' versions advance when the poisoned session is returned — the
// conservative side, whatever the replica count.
func TestQueryCacheTransportFailedWritePublishes(t *testing.T) {
	eachReplicaCount(t, func(t *testing.T, reps []*testReplica) {
		c := newTestClient(t, reps, Config{QueryCache: 32})
		epoch0 := c.ContentEpoch()
		s, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Begin("items"); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "UPDATE items SET qty = 1 WHERE id = 1")
		for _, r := range reps {
			r.srv.Close()
		}
		if _, err := s.Exec("UPDATE items SET qty = 2 WHERE id = 1"); !isTransport(err) {
			t.Fatalf("write on dead backends = %v, want a transport error", err)
		}
		c.Put(s, true)
		if got := c.ContentEpoch(); got != epoch0+1 {
			t.Fatalf("ContentEpoch %d after a transport-failed write at %d, want one bump", got, epoch0)
		}
	})
}

// TestQueryCacheTxnBypass: inside a transaction that write-holds a table,
// reads of that table must bypass the cache (read-your-writes stays live),
// while the outside world keeps its cached view until commit.
func TestQueryCacheTxnBypass(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{QueryCache: 32})

	queryQty(t, c, 3) // fill: 100

	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("items"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE items SET qty = 55 WHERE id = 3")
	if got := queryQty(t, s, 3); got != 55 {
		t.Fatalf("read-your-writes inside txn = %d, want 55", got)
	}
	_, _, _, bypasses := cacheStats(c)
	if bypasses == 0 {
		t.Fatal("in-txn read of a write-held table did not bypass the cache")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Put(s, false)

	if got := queryQty(t, c, 3); got != 55 {
		t.Fatalf("qty after commit = %d, want 55", got)
	}
}

// TestQueryCacheReadOnlyTxn: read-only work runs on a session with no
// transaction open, whose reads are the Client's own: they fill the query
// cache and hit it.
func TestQueryCacheReadOnlyTxn(t *testing.T) {
	reps := startReplicas(t, 2)
	c := newTestClient(t, reps, Config{QueryCache: 32})
	s, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Put(s, false)

	for i := 0; i < 2; i++ { // fill, then hit
		if got := queryQty(t, s, 4); got != 100 {
			t.Fatalf("session read qty = %d, want 100", got)
		}
	}
	if hits, misses, _, bypasses := cacheStats(c); hits != 1 || misses != 1 || bypasses != 0 {
		t.Fatalf("session reads: %d hits, %d misses, %d bypasses; want 1, 1, 0", hits, misses, bypasses)
	}
}

// TestQueryCacheTorture is the -race stress test: concurrent cached
// readers against committing and aborting writers. Invariants checked on
// every read, through the cache:
//
//   - a session's own committed write is visible to its very next read
//     (bump-after-ack means the stale entry cannot revalidate);
//   - the qty sum of the transfer pair rows 5+6 is always 200 — a single
//     SELECT never observes a half-applied transaction;
//   - the poison value written by always-aborting transactions never
//     escapes its session (abort publishes nothing, MVCC hides it).
func TestQueryCacheTorture(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			reps := startReplicas(t, n)
			c := newTestClient(t, reps, Config{QueryCache: 64, PoolSize: 16})
			const iters = 60

			var wg sync.WaitGroup
			fail := func(format string, args ...any) {
				t.Helper()
				t.Errorf(format, args...)
			}

			// Freshness writers: each owns one row, writes a unique name,
			// reads it straight back through the cache.
			for g := 1; g <= 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						want := fmt.Sprintf("g%d-%d", g, i)
						if _, err := c.Exec("UPDATE items SET name = ? WHERE id = ?",
							sqldb.String(want), sqldb.Int(int64(g))); err != nil {
							fail("freshness write: %v", err)
							return
						}
						res, err := c.Exec("SELECT name FROM items WHERE id = ?", sqldb.Int(int64(g)))
						if err != nil || len(res.Rows) != 1 {
							fail("freshness read: %v", err)
							return
						}
						if got := res.Rows[0][0].AsString(); got != want {
							fail("stale read: got %q after committing %q", got, want)
							return
						}
					}
				}(g)
			}

			// Transfer writer: moves qty between rows 5 and 6 inside a
			// transaction; the pair sum stays 200.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					err := c.WithTx([]string{"items"}, func(tx *Session) error {
						if _, err := tx.Exec("UPDATE items SET qty = qty - 1 WHERE id = 5"); err != nil {
							return err
						}
						_, err := tx.Exec("UPDATE items SET qty = qty + 1 WHERE id = 6")
						return err
					})
					if err != nil {
						fail("transfer txn: %v", err)
						return
					}
				}
			}()

			// Aborter: poisons row 7 inside a txn, always rolls back.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					s, err := c.Get()
					if err != nil {
						fail("aborter get: %v", err)
						return
					}
					if err := s.Begin("items"); err != nil {
						c.Put(s, true)
						fail("aborter begin: %v", err)
						return
					}
					if _, err := s.Exec("UPDATE items SET qty = -999 WHERE id = 7"); err != nil {
						fail("aborter write: %v", err)
					}
					if err := s.Rollback(); err != nil {
						fail("aborter rollback: %v", err)
					}
					c.Put(s, false)
				}
			}()

			// Readers: full-table scans through the cache, checking the
			// invariants on every result.
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters*2; i++ {
						res, err := c.Exec("SELECT id, qty FROM items")
						if err != nil {
							fail("scan: %v", err)
							return
						}
						var pair int64
						for _, row := range res.Rows {
							id, qty := row[0].AsInt(), row[1].AsInt()
							if qty < 0 {
								fail("poison escaped: id=%d qty=%d", id, qty)
								return
							}
							if id == 5 || id == 6 {
								pair += qty
							}
						}
						if pair != 200 {
							fail("transfer pair sum = %d, want 200 (torn read)", pair)
							return
						}
					}
				}()
			}
			wg.Wait()

			// The caches did real work: some hits, and the aborter's
			// rollbacks produced bypasses but no spurious invalidations
			// beyond what the committers caused.
			hits, misses, _, _ := cacheStats(c)
			if hits == 0 {
				t.Errorf("torture run produced no cache hits (misses=%d)", misses)
			}
		})
	}
}

// TestQueryCacheRetriedFillRefills: the stamp is taken once, before a
// read's first attempt. When a write commits while that read is retried (a
// stale pooled connection, a replica failover), the fill is born stale. The
// lookup after it must reject the entry and read live — one spurious miss,
// never a stale hit — and the read after that must hit the refilled entry.
// The run closure below replays that sequence: attempt 0 has died in
// transport after the stamp, a write commits, attempt 1 reads.
func TestQueryCacheRetriedFillRefills(t *testing.T) {
	reps := startReplicas(t, 1)
	c := newTestClient(t, reps, Config{QueryCache: 8})
	const q = "SELECT qty FROM items WHERE id = ?"
	args := []sqldb.Value{sqldb.Int(1)}
	rs := flat(c)
	rt := rs.routes.of(q)

	res, err := rs.cachedRead(rt, q, args, false, func() (*sqldb.Result, error) {
		mustExec(t, c, "UPDATE items SET qty = 7 WHERE id = 1")
		return rs.replicas[0].pool.Exec(q, args...)
	})
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("filling read: %v %v", err, res)
	}

	for i, want := range []struct{ hits, misses, invals int64 }{
		{0, 2, 1}, // the born-stale entry is rejected, removed and refilled
		{1, 2, 1}, // the refilled entry hits
	} {
		if got := queryQty(t, c, 1); got != 7 {
			t.Fatalf("read %d: qty = %d, want 7", i, got)
		}
		hits, misses, invals, _ := cacheStats(c)
		if hits != want.hits || misses != want.misses || invals != want.invals {
			t.Fatalf("read %d: hits=%d misses=%d invalidations=%d, want %d/%d/%d",
				i, hits, misses, invals, want.hits, want.misses, want.invals)
		}
	}
}

// TestQueryCacheSkipsTablelessReads: a read that names no table (SHOW) is
// never cached: it runs live every time and counts neither a hit nor a
// miss.
func TestQueryCacheSkipsTablelessReads(t *testing.T) {
	reps := startReplicas(t, 1)
	c := newTestClient(t, reps, Config{QueryCache: 8})
	for i := 0; i < 2; i++ {
		for _, q := range []string{"SHOW TABLE STATUS", "SHOW WAL STATUS"} {
			if _, err := c.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	if hits, misses, invals, bypasses := cacheStats(c); hits+misses+invals+bypasses != 0 {
		t.Fatalf("hits=%d misses=%d invalidations=%d bypasses=%d, want all 0", hits, misses, invals, bypasses)
	}
}

// TestQueryCacheResultsAreCopies: a caller that edits the result it got —
// from the filling read or from a hit — changes nothing the next hit
// returns.
func TestQueryCacheResultsAreCopies(t *testing.T) {
	reps := startReplicas(t, 1)
	c := newTestClient(t, reps, Config{QueryCache: 8})
	const q = "SELECT qty FROM items WHERE id = 1"
	for i := 0; i < 3; i++ {
		res, err := c.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].AsInt(); got != 100 {
			t.Fatalf("read %d: qty = %d, want 100 (a caller's edit reached the cache)", i, got)
		}
		res.Rows[0][0] = sqldb.Int(-1)
		res.Rows[0] = nil
	}
	if hits, _, _, _ := cacheStats(c); hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

// TestQueryCacheDoesNotSpanRegistries pins the query cache's reach: its
// table versions live on the process's lock registry, so a write through
// another process's client, which has a registry of its own, invalidates
// nothing here and the cached result goes on being served.
func TestQueryCacheDoesNotSpanRegistries(t *testing.T) {
	reps := startReplicas(t, 1)
	c := newTestClient(t, reps, Config{QueryCache: 8})
	other := otherProcessClient(t, Config{DSN: dsnOf(reps), PoolSize: 4})
	if got := queryQty(t, c, 1); got != 100 {
		t.Fatalf("qty = %d, want 100", got)
	}
	mustExec(t, other, "UPDATE items SET qty = 7 WHERE id = 1")
	if got := queryQty(t, c, 1); got != 100 {
		t.Fatalf("qty = %d after another process's write, want the cached 100", got)
	}
	if hits, _, invals, _ := cacheStats(c); hits != 1 || invals != 0 {
		t.Fatalf("hits=%d invalidations=%d, want 1/0", hits, invals)
	}
}

// TestCacheKeyInjective: distinct argument lists for one statement give
// distinct keys — in particular string arguments holding the separator
// byte, which once let ("a\x00sb", "c") and ("a", "b\x00sc") share a key.
func TestCacheKeyInjective(t *testing.T) {
	const q = "SELECT id FROM items WHERE name = ? AND qty = ?"
	s, i := sqldb.String, sqldb.Int
	lists := [][]sqldb.Value{
		nil,
		{s("a\x00sb"), s("c")},
		{s("a"), s("b\x00sc")},
		{s("a\x00"), s("")},
		{s("a"), s("\x00")},
		{s("1"), i(1)},
		{i(1), s("1")},
		{i(12), s("")},
		{s("2:ab"), s("")},
		{s("2"), s("ab")},
		{sqldb.Null(), s("")},
		{s("n"), s("")},
		{sqldb.Float(1), i(1)},
	}
	seen := map[string]int{}
	for n, args := range lists {
		k := cacheKey(q, args)
		if m, dup := seen[k]; dup {
			t.Fatalf("args %d and %d share the key %q", m, n, k)
		}
		seen[k] = n
	}
}

// TestQueryCacheDistinctStringArgs: two calls whose string arguments once
// collided on one cache key each run live and get their own rows; so does
// a text holding a NUL inside a comment whose bytes spell another call's
// key. The first argument names the row; the second only has to contain
// "item".
func TestQueryCacheDistinctStringArgs(t *testing.T) {
	reps := startReplicas(t, 1)
	c := newTestClient(t, reps, Config{QueryCache: 32})
	const q = "SELECT id FROM items WHERE name = ? AND ? LIKE '%item%' -- "
	ids := func(q string, args ...sqldb.Value) []int64 {
		t.Helper()
		res, err := c.Exec(q, args...)
		if err != nil {
			t.Fatalf("%q %v: %v", q, args, err)
		}
		var out []int64
		for _, r := range res.Rows {
			out = append(out, r[0].AsInt())
		}
		return out
	}
	if got := ids(q, sqldb.String("item-1\x00sb"), sqldb.String("item-2")); len(got) != 0 {
		t.Fatalf("first call: ids %v, want none", got)
	}
	if got := ids(q, sqldb.String("item-1"), sqldb.String("b\x00sitem-2")); len(got) != 1 || got[0] != 1 {
		t.Fatalf("second call: ids %v, want [1] (served the first call's rows?)", got)
	}
	// The text below is byte for byte the key of the fill before it; with
	// no arguments for its placeholders it must fail live, not hit.
	if got := ids(q, sqldb.String("item-3"), sqldb.String("item-4")); len(got) != 1 || got[0] != 3 {
		t.Fatalf("third call: ids %v, want [3]", got)
	}
	nul := cacheKey(q, []sqldb.Value{sqldb.String("item-3"), sqldb.String("item-4")})
	if res, err := c.Exec(nul); err == nil {
		t.Fatalf("NUL text without arguments: %v rows, want an error", len(res.Rows))
	}
	if hits, misses, _, _ := cacheStats(c); hits != 0 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3", hits, misses)
	}
}
