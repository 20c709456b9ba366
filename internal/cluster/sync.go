package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sqldb"
)

// ErrSyncTimeout is returned by Sync when the copy outlives its deadline.
// The destination holds a half-copied data set; Rejoin reacts by leaving
// the replica cleanly ejected (and marked mid-sync for every client in this
// process sharing the DSN) rather than promoting it.
var ErrSyncTimeout = errors.New("cluster: sync deadline exceeded")

// Sync is the replica-sync path, the one way a replica catches up: Rejoin
// and a dbserver starting with -peers both call it. It copies src's data
// onto dst table by table: SHOW TABLE STATUS to enumerate the catalog,
// SELECT * to read each table, DELETE FROM plus batched INSERTs to rewrite
// it, and ALTER TABLE ... AUTO_INCREMENT to copy the source's id-assignment
// state exactly. dst must already have the schema (a rejoining replica kept
// its own). Row data alone cannot carry the counters: a strided shard
// counter (offset/stride) or a counter advanced past a deleted row would
// diverge on the next insert, so the status row's next/offset/stride are
// replayed verbatim. The copy equals its source whatever dst held before —
// a stale, diverged or recovered joiner alike. It returns the tables and
// rows copied.
//
// The copy is bounded by a wall-clock budget (0: unbounded). The deadline
// is checked between tables and between row batches — the units of work
// whose individual round trips the transport deadlines already bound — so
// expiry surfaces as ErrSyncTimeout within one round trip rather than
// hanging for the whole copy of a large data set.
func Sync(src, dst sqldb.Execer, budget time.Duration) (tables, rows int, err error) {
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	cat, err := src.Exec("SHOW TABLE STATUS")
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: sync: catalog: %w", err)
	}
	for _, row := range cat.Rows {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return tables, rows, ErrSyncTimeout
		}
		table := row[0].AsString()
		n, err := syncTable(src, dst, table, deadline)
		if err != nil {
			return tables, rows, fmt.Errorf("cluster: sync %s: %w", table, err)
		}
		// Columns: table, rows, auto_increment, ai_offset, ai_stride.
		if err := syncAutoInc(dst, table, row[2].AsInt(), row[3].AsInt(), row[4].AsInt()); err != nil {
			return tables, rows, fmt.Errorf("cluster: sync %s: counters: %w", table, err)
		}
		tables++
		rows += n
	}
	return tables, rows, nil
}

// syncAutoInc replays one table's id-assignment state onto dst. OFFSET and
// STRIDE are included only when set on the source — ALTER refuses a zero
// clause, and an unstrided source must not disturb defaults.
func syncAutoInc(dst sqldb.Execer, table string, next, offset, stride int64) error {
	q := fmt.Sprintf("ALTER TABLE %s AUTO_INCREMENT", table)
	if offset > 0 {
		q += fmt.Sprintf(" OFFSET %d", offset)
	}
	if stride > 0 {
		q += fmt.Sprintf(" STRIDE %d", stride)
	}
	q += fmt.Sprintf(" NEXT %d", next)
	_, err := dst.Exec(q)
	return err
}

// syncTable rewrites dst's table as src's, in the multi-row INSERTs of a
// sqldb.InsertBatch, checking the deadline before each row it adds — so
// between batches too.
func syncTable(src, dst sqldb.Execer, table string, deadline time.Time) (int, error) {
	data, err := src.Exec("SELECT * FROM " + table)
	if err != nil {
		return 0, err
	}
	if _, err := dst.Exec("DELETE FROM " + table); err != nil {
		return 0, err
	}
	b := sqldb.NewInsertBatch(dst, table, data.Columns...)
	for _, r := range data.Rows {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return 0, ErrSyncTimeout
		}
		if err := b.Add(r...); err != nil {
			return 0, err
		}
	}
	if err := b.Flush(); err != nil {
		return 0, err
	}
	return len(data.Rows), nil
}
