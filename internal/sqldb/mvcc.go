package sqldb

// This file is the read path — there is one. A table's committed state is a
// few copy-on-write tree headers (table.go, cowtree.go), so handing it to a
// reader is an O(1) clone, and every SELECT, inside a transaction or not,
// executes against such a clone: no read takes, or waits for, a table lock.
//
// Publication. Every table carries a version counter, bumped under the
// table's leaf mutex at the moment a writer's effects become committed
// state: at the end of an auto-commit DML statement, which applies itself to
// the committed state in place under that mutex; per written table at
// COMMIT, which swaps the transaction's private fork in; and at CREATE
// INDEX. ROLLBACK drops the fork and publishes nothing. The writer still
// holds the table's write lock at that moment, so within a table
// publications are ordered like the writes.
//
// Views. The first reader after a publication clones the committed state
// under the leaf mutex (a "refresh") and installs the clone; every later
// reader takes it with one atomic load (a "lock bypass") until the version
// moves again. The mutex is a leaf: nothing holds it across a round trip or
// while waiting for anything, so a refresh waits at most for one statement
// applying itself. A writer that next touches the table copies the nodes on
// its path (the view still shares them) and nothing else.
//
// Visibility rules (DESIGN.md §11): a read sees every transaction that
// committed before the statement started and nothing of any transaction
// still in flight; a statement that joins several tables takes each table's
// latest committed version independently; a transaction reads its own fork
// of every table it has written (read-your-writes) and committed views of
// everything else.

// TableVersion reports a table's commit-time version counter: it advances
// once per committed publication of the table's state (write commits and
// DDL), never on aborted transactions — the rolled-back writes were never
// published. This is the engine-side ground truth the caching tier's
// client-side version mirror approximates (internal/cluster, cache.go);
// tests assert the two agree on the publish/no-publish decision. Unknown
// tables report 0.
func (db *DB) TableVersion(name string) uint64 {
	t, err := db.table(name)
	if err != nil {
		return 0
	}
	return t.version.Load()
}

// committed returns t's last committed state as a detached table nobody
// writes: the installed view when it is still current (a lock bypass: one
// atomic load), else a fresh clone (a snapshot refresh, once per
// publication and first subsequent reader).
func (t *Table) committed(c *counters) *Table {
	if v := t.view.Load(); v != nil && v.seq == t.version.Load() {
		c.LockBypasses.Add(1)
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v := t.view.Load(); v != nil && v.seq == t.version.Load() {
		return v // another reader cloned it while this one queued
	}
	v := t.detach()
	v.seq = t.version.Load()
	t.view.Store(v)
	c.SnapshotRefreshes.Add(1)
	return v
}

// views resolves what a SELECT over tabs reads: the session's own fork of
// each table its open transaction has written, the committed view of the
// rest.
func (s *Session) views(tabs []*Table) []*Table {
	views := make([]*Table, len(tabs))
	own := false
	for i, t := range tabs {
		if s.tx != nil {
			if views[i] = s.tx.fork(t); views[i] != nil {
				own = true
				continue
			}
		}
		views[i] = t.committed(&s.db.ctr)
	}
	if !own {
		s.db.ctr.SnapshotReads.Add(1)
	}
	return views
}
