// Query-result cache: the level-1 half of the caching tier (DESIGN.md §10).
//
// The cluster client already knows, at commit time, exactly which tables a
// write touched — that is what the per-DSN write-order lock registry keys
// on. This file reuses that scope as a table-version mirror: every
// committed write bumps the counters of the tables it named (route.go,
// writeLocks.versions), and a cached SELECT result is served only while
// every table it references still carries the version it was read under.
// Validation is a handful of atomic loads; invalidation is per-entry and
// lazy (a stale entry is deleted when next looked up, or evicted by LRU).
//
// Why this cannot serve stale data (the §4b-style argument, in short):
//   - A result's version stamp is captured BEFORE the live read that fills
//     the entry is issued. If a write commits in between, the bump lands on
//     top of the pre-capture stamp and the entry validates as stale even
//     though its data may in fact be newer — the error is only ever in the
//     conservative direction (a needless miss, never a stale hit).
//   - A table's version is bumped strictly AFTER the commit is acked
//     server-side, and publication is conservative, by one rule at every
//     replica count: any outcome that is not a deterministic server-side
//     failure bumps (a broadcast that died in transport may still have
//     applied) — an auto-commit write at once, a transactional one with
//     its transaction's write set. An abort publishes nothing —
//     aborted writes were never visible to any live read, so cache entries
//     filled concurrently saw pre-txn data that is still correct.
//   - Inside a transaction that write-holds a referenced table the cache is
//     bypassed entirely (replicaTxn.cacheBypass): read-your-writes stays on
//     the live path, and uncommitted local writes are never published.
//
// The entries live in an lru.Cache; this file owns the key (cacheKey), the
// freshness test (validLocked) and the copies. Results handed out by the
// cache are defensive copies in both directions (a fill copies in, a hit
// copies out): callers such as internal/ejb mutate result rows in place,
// and a shared cached row would corrupt every later reader.
package cluster

import (
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/sqldb"
)

// versionOf returns the live counter for one table, creating it on first
// reference. The counter lives on the shared per-DSN registry, so every
// client of the same cluster observes the same version stream.
func (w *writeLocks) versionOf(table string) *atomic.Uint64 {
	if v, ok := w.versions.Load(table); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := w.versions.LoadOrStore(table, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// bump publishes a committed write: the named tables' versions advance, a
// write with unknown table set ("" catch-all) advances the wildcard every
// cache entry also validates against, and the content epoch advances
// unconditionally (the page cache's invalidation signal, Client.ContentEpoch).
// Called only after the write is known — or cannot be proven not — to have
// committed server-side.
func (w *writeLocks) bump(tables []string) {
	for _, t := range tables {
		if t == "" {
			w.wild.Add(1)
		} else {
			w.versionOf(t).Add(1)
		}
	}
	w.epoch.Add(1)
}

// stampFor captures the current versions a cached result for readTables
// must be validated against: the wildcard first, then one slot per table.
// Capture happens before the filling read is issued (see package comment).
func (w *writeLocks) stampFor(readTables []string) []uint64 {
	stamp := make([]uint64, 1+len(readTables))
	stamp[0] = w.wild.Load()
	for i, t := range readTables {
		stamp[i+1] = w.versionOf(t).Load()
	}
	return stamp
}

// cacheKey builds the lookup key for (statement, args). The statement text
// is used verbatim — routes already memoizes per distinct text, and two
// spellings of the same query simply occupy two entries. Each arg follows a
// NUL byte with a kind tag, so Int(1) and String("1") cannot collide, and a
// string is length-prefixed, so one holding a NUL cannot run into the next
// arg. cachedRead caches no text holding a NUL, so the key is injective.
func cacheKey(query string, args []sqldb.Value) string {
	if len(args) == 0 {
		return query
	}
	var b strings.Builder
	b.Grow(len(query) + 16*len(args))
	b.WriteString(query)
	for _, a := range args {
		b.WriteByte(0)
		switch a.Kind() {
		case sqldb.KindNull:
			b.WriteByte('n')
		case sqldb.KindInt:
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(a.AsInt(), 10))
		case sqldb.KindFloat:
			b.WriteByte('f')
			b.WriteString(strconv.FormatFloat(a.AsFloat(), 'g', -1, 64))
		default:
			s := a.AsString()
			b.WriteByte('s')
			b.WriteString(strconv.Itoa(len(s)))
			b.WriteByte(':')
			b.WriteString(s)
		}
	}
	return b.String()
}

// copyResult deep-copies rows (one flat backing array, two allocations)
// so cache storage and caller never share mutable state. Column names are
// shared: they are never mutated by any consumer.
func copyResult(r *sqldb.Result) *sqldb.Result {
	out := &sqldb.Result{
		Columns:      r.Columns,
		RowsAffected: r.RowsAffected,
		LastInsertID: r.LastInsertID,
	}
	if len(r.Rows) == 0 {
		return out
	}
	n := 0
	for _, row := range r.Rows {
		n += len(row)
	}
	flat := make(sqldb.Row, n)
	out.Rows = make([]sqldb.Row, len(r.Rows))
	i := 0
	for ri, row := range r.Rows {
		copy(flat[i:i+len(row)], row)
		out.Rows[ri] = flat[i : i+len(row) : i+len(row)]
		i += len(row)
	}
	return out
}

// cacheEntry is one cached result with the stamp it was filled under.
type cacheEntry struct {
	res   *sqldb.Result
	stamp []uint64 // wildcard + per-readTable versions at fill time
	reads []string // the readTables the stamp covers, in stamp order
}

// validLocked is the query cache's freshness test, run under the cache's
// lock: it re-reads the live versions for the entry's table set and
// compares against the fill-time stamp. Equality — not ordering — is the
// test: counters only advance, so any difference means a commit landed
// after the stamp was captured. A stale entry is deleted on lookup
// (per-entry invalidation, never a wholesale flush).
func (w *writeLocks) validLocked(e cacheEntry) bool {
	if e.stamp[0] != w.wild.Load() {
		return false
	}
	for i, t := range e.reads {
		if e.stamp[i+1] != w.versionOf(t).Load() {
			return false
		}
	}
	return true
}

// notePublish records a transactional write's table set for version
// publication, deferred into the session's writeSet until COMMIT flushes it
// — an abort must publish nothing, because aborted writes were never
// visible to any read that could have filled a cache entry. (An auto-commit
// write is committed once acked: writeWith bumps at once.)
func (s *replicaTxn) notePublish(tables []string) {
	if s.writeSet == nil {
		s.writeSet = make(map[string]bool)
	}
	for _, t := range tables {
		s.writeSet[t] = true
	}
}

// flushWrites publishes the transaction's accumulated write set: at COMMIT,
// and when a session is abandoned mid-transaction. That is the one rule for
// a transport failure at every replica count — the failed statement's
// tables are in the set like any other's.
func (s *replicaTxn) flushWrites() {
	if len(s.writeSet) == 0 {
		return
	}
	tables := make([]string, 0, len(s.writeSet))
	for t := range s.writeSet {
		tables = append(tables, t)
	}
	s.rs.locks.bump(tables)
	s.writeSet = nil
}

// discardWrites drops the pending write set without publishing (ROLLBACK).
func (s *replicaTxn) discardWrites() { s.writeSet = nil }

// cacheBypass reports whether a transaction's read must skip the cache:
// when its declared (held) or observed (writeSet) write set intersects the
// read's tables — including the catch-all "" of an undeclared transaction —
// the read must run live to see the session's own uncommitted writes, and
// its result must not be published as what other clients should see. A
// read-only transaction has neither set and bypasses nothing.
func (s *replicaTxn) cacheBypass(rt route) bool {
	if s.writeSet[""] {
		return true
	}
	for _, h := range s.held {
		if h == "" {
			return true
		}
	}
	for _, t := range rt.readTables {
		if s.writeSet[t] {
			return true
		}
		for _, h := range s.held {
			if h == t {
				return true
			}
		}
	}
	return false
}

// cachedRead wraps one live read with the cache protocol: serve a validated
// entry, or capture the stamp, run the read, and fill. bypass is set by
// sessions whose open transaction write-holds a referenced table — the
// read must see the session's own uncommitted writes, so it stays live and
// fills nothing (the txn's result is not what other clients should see).
//
// run receives a restamp hook to hand to the pool as its per-attempt
// callback (nil when nothing will be filled), so it fires immediately
// before every attempt that could produce the rows — the pool's
// stale-connection retry, the read router's failover to the next replica.
// The stamp that fills the entry must belong to the attempt that actually
// read: a stamp captured before a failed first attempt predates any write
// that committed during the retry window, so the fill would be born stale
// and every lookup a spurious miss (monotone versions keep the error
// conservative, but the cache stops caching). Paths with no retry may
// ignore the hook — the pre-run capture below still covers them.
func (rs *replicaSet) cachedRead(rt route, query string, args []sqldb.Value, bypass bool, run func(restamp func(int)) (*sqldb.Result, error)) (*sqldb.Result, error) {
	q := rs.qcache
	// A NUL in the text (legal in a comment or a literal) could run into
	// cacheKey's argument encoding, so such a text is never cached.
	if q == nil || rt.readTables == nil || strings.IndexByte(query, 0) >= 0 {
		return run(nil)
	}
	if bypass {
		rs.cacheBypasses.Add(1)
		return run(nil)
	}
	key := cacheKey(query, args)
	if e, ok := q.Get(key, rs.locks.validLocked); ok {
		return copyResult(e.res), nil
	}
	var stamp []uint64
	restamp := func(int) { stamp = rs.locks.stampFor(rt.readTables) }
	restamp(0)
	res, err := run(restamp)
	if err != nil {
		return nil, err
	}
	q.Put(key, cacheEntry{res: copyResult(res), stamp: stamp, reads: rt.readTables})
	return res, nil
}
