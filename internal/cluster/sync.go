package cluster

import (
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"repro/internal/sqldb"
)

// syncBatch bounds rows per INSERT during a replica sync.
const syncBatch = 64

// walShipBatch bounds statements per SHOW WAL RECORDS page during a delta
// sync, and walShipMaxRounds bounds the pages — a joiner that cannot catch
// up within the cap (the source is outrunning it) falls back to a full
// copy rather than chasing the log forever.
const (
	walShipBatch     = 256
	walShipMaxRounds = 1024
)

// ErrSyncTimeout is returned by SyncWithin when the copy outlives its
// deadline. The destination holds a half-copied data set; Rejoin reacts by
// leaving the replica cleanly ejected (and marked mid-sync for every
// client sharing the DSN) rather than promoting it.
var ErrSyncTimeout = errors.New("cluster: sync deadline exceeded")

// Sync replays src's data onto dst, table by table: SHOW TABLE STATUS to
// enumerate the catalog, SELECT * to read each table, DELETE FROM plus
// batched INSERTs to rewrite it, and ALTER TABLE ... AUTO_INCREMENT to copy
// the source's id-assignment state exactly. dst must already have the
// schema (a fresh dbserver creates it before syncing; a rejoining replica
// kept its own). Row data alone cannot carry the counters: a strided shard
// counter (offset/stride) or a counter advanced past a deleted row would
// diverge on the next insert, so the status row's next/offset/stride are
// replayed verbatim. It returns the tables and rows copied.
func Sync(src, dst sqldb.Execer) (tables, rows int, err error) {
	return SyncWithin(src, dst, 0)
}

// SyncWithin is Sync bounded by a wall-clock budget (0: unbounded). The
// deadline is checked between tables and between row batches — the units
// of work whose individual round trips the transport deadlines already
// bound — so expiry surfaces as ErrSyncTimeout within one round trip
// rather than hanging for the whole copy of a large data set.
func SyncWithin(src, dst sqldb.Execer, budget time.Duration) (tables, rows int, err error) {
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
// STRIDE are included only when set on the source — ALTER treats zero as
// "leave alone", and an unstrided source must not disturb defaults.
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

// SyncStats describes which path a SyncAuto took and how much it shipped.
type SyncStats struct {
	// Delta is true when the WAL log-shipping fast path caught the joiner
	// up; Stmts counts the statements it replayed. False means the full
	// table copy ran: Tables/Rows count what it rewrote.
	Delta  bool
	Stmts  int
	Tables int
	Rows   int
}

// SyncAuto catches dst up to src, preferring the WAL delta path: when both
// sides have write-ahead logs and dst's log head (last LSN + chain hash)
// matches src's chain at that same LSN — proving dst's state is a strict
// prefix of src's history — only the statements dst missed are shipped
// (SHOW WAL RECORDS) and replayed, instead of rewriting every table. Any
// mismatch, unavailability (dst's position rotated out of src's retained
// log), or mid-ship divergence falls back to the full SyncWithin copy.
func SyncAuto(src, dst sqldb.Execer, budget time.Duration) (SyncStats, error) {
	if st, err := syncWALDelta(src, dst, budget); err == nil {
		return st, nil
	} else if errors.Is(err, ErrSyncTimeout) {
		// Out of budget: a full copy would only take longer.
		return st, err
	}
	tables, rows, err := SyncWithin(src, dst, budget)
	return SyncStats{Tables: tables, Rows: rows}, err
}

// errNoDelta marks conditions where the delta path does not apply and the
// full copy should run; it never escapes SyncAuto.
var errNoDelta = errors.New("cluster: wal delta sync not applicable")

// walHead reads an Execer's WAL position: attached, last LSN, chain hash.
func walHead(e sqldb.Execer) (attached bool, last, chain int64, err error) {
	res, err := e.Exec("SHOW WAL STATUS")
	if err != nil || len(res.Rows) == 0 {
		return false, 0, 0, fmt.Errorf("%w: status: %v", errNoDelta, err)
	}
	row := res.Rows[0]
	return row[0].AsInt() == 1, row[1].AsInt(), row[3].AsInt(), nil
}

// chainMatches asks src for its chain hash at lsn and compares it with
// want. False covers both divergence and unavailability (lsn below src's
// retained horizon or past its head).
func chainMatches(src sqldb.Execer, lsn, want int64) bool {
	res, err := src.Exec(fmt.Sprintf("SHOW WAL CHAIN %d", lsn))
	if err != nil || len(res.Rows) == 0 {
		return false
	}
	return res.Rows[0][2].AsInt() == 1 && res.Rows[0][1].AsInt() == want
}

func syncWALDelta(src, dst sqldb.Execer, budget time.Duration) (SyncStats, error) {
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	attached, last, chain, err := walHead(dst)
	if err != nil {
		return SyncStats{}, err
	}
	if !attached {
		return SyncStats{}, fmt.Errorf("%w: joiner has no wal", errNoDelta)
	}
	if !chainMatches(src, last, chain) {
		return SyncStats{}, fmt.Errorf("%w: joiner head (lsn %d) not a prefix of source history", errNoDelta, last)
	}
	st := SyncStats{Delta: true}
	for round := 0; round < walShipMaxRounds; round++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return st, ErrSyncTimeout
		}
		recs, err := src.Exec(fmt.Sprintf("SHOW WAL RECORDS SINCE %d LIMIT %d", last, walShipBatch))
		if err != nil {
			return st, fmt.Errorf("cluster: wal delta: records since %d: %w", last, err)
		}
		if len(recs.Rows) == 0 {
			// Caught up. The final handshake proves the replay left dst's
			// chain a prefix of src's history (per-statement errors were
			// ignored above — originally-failing statements are part of the
			// log — so the chain is the arbiter of convergence).
			_, dLast, dChain, err := walHead(dst)
			if err != nil {
				return st, err
			}
			if !chainMatches(src, dLast, dChain) {
				return st, fmt.Errorf("cluster: wal delta: chains diverged after replay at lsn %d", dLast)
			}
			return st, nil
		}
		for _, row := range recs.Rows {
			raw, err := base64.StdEncoding.DecodeString(row[2].AsString())
			if err != nil {
				return st, fmt.Errorf("cluster: wal delta: bad args at lsn %d: %w", row[0].AsInt(), err)
			}
			args, err := sqldb.DecodeWALValues(raw)
			if err != nil {
				return st, fmt.Errorf("cluster: wal delta: bad args at lsn %d: %w", row[0].AsInt(), err)
			}
			dst.Exec(row[1].AsString(), args...)
			st.Stmts++
			last = row[0].AsInt()
		}
	}
	return st, fmt.Errorf("cluster: wal delta: joiner still behind after %d rounds", walShipMaxRounds)
}

func syncTable(src, dst sqldb.Execer, table string, deadline time.Time) (int, error) {
	data, err := src.Exec("SELECT * FROM " + table)
	if err != nil {
		return 0, err
	}
	if _, err := dst.Exec("DELETE FROM " + table); err != nil {
		return 0, err
	}
	if len(data.Rows) == 0 {
		return 0, nil
	}
	for off := 0; off < len(data.Rows); off += syncBatch {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return 0, ErrSyncTimeout
		}
		end := off + syncBatch
		if end > len(data.Rows) {
			end = len(data.Rows)
		}
		batch := data.Rows[off:end]
		args := make([]sqldb.Value, 0, len(batch)*len(data.Columns))
		for _, r := range batch {
			args = append(args, r...)
		}
		if _, err := dst.Exec(sqldb.InsertSQL(table, data.Columns, len(batch)), args...); err != nil {
			return 0, err
		}
	}
	return len(data.Rows), nil
}
