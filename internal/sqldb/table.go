package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sqldb/sqlparse"
)

// Column describes one table column.
type Column struct {
	Name          string
	Type          sqlparse.ColType
	PrimaryKey    bool
	AutoIncrement bool
	NotNull       bool
}

// Table is heap storage plus indexes. Access must be serialized by the
// database lock manager (MyISAM-style table locks); Table itself is not
// goroutine-safe — except for the snapshot machinery (mvcc.go): version is
// bumped by writers under the write lock and read lock-free by the snapshot
// fast path, and snap holds a frozen copy that any number of readers share
// without locks.
type Table struct {
	name    string
	columns []Column
	colIdx  map[string]int // lower-cased name -> position

	rows    map[int64]Row // rowid -> row
	nextID  int64         // next rowid
	nextAI  int64         // next AUTO_INCREMENT value
	pkCol   int           // -1 when no primary key
	indexes map[string]*index

	// aiOffset/aiStride configure strided AUTO_INCREMENT assignment
	// (MySQL's auto_increment_offset / auto_increment_increment): values are
	// drawn from the congruence class ≡ aiOffset (mod aiStride), so each
	// shard of a partitioned table assigns from a disjoint id space. Zero
	// stride means the classic dense sequence.
	aiOffset int64
	aiStride int64

	// rowOrder preserves insertion order for stable full scans.
	rowOrder []int64

	// tlock caches the lock-manager entry for this table, set before the
	// table is published in the catalog (db.tableLockOf falls back to the
	// name lookup when nil, e.g. on frozen snapshots).
	tlock *tableLock

	// Snapshot-read state (mvcc.go). version counts committed publications;
	// snap caches the frozen copy of the last refreshed version; snapMu
	// serializes refreshes so concurrent readers of a stale snapshot build
	// one copy, not one each; snapHits counts lock-free reads served by the
	// installed snapshot (reset at refresh) — the adaptive-refresh signal.
	// On a frozen copy itself, snapSeq records the version it was built
	// from; the atomics stay zero.
	version  atomic.Uint64
	snap     atomic.Pointer[Table]
	snapMu   sync.Mutex
	snapHits atomic.Int64
	snapSeq  uint64
}

// index is a hash index over one column, with lazily maintained sorted keys
// for range scans. sorted marks frozen-snapshot indexes whose posting lists
// were sorted at freeze time and are immutable, so lookups can return them
// without the copy-and-sort.
type index struct {
	name   string
	col    int
	unique bool
	sorted bool
	m      map[indexKey][]int64
}

func newTable(name string, cols []Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %q needs at least one column", name)
	}
	t := &Table{
		name:    name,
		columns: cols,
		colIdx:  make(map[string]int, len(cols)),
		rows:    make(map[int64]Row),
		nextID:  1,
		nextAI:  1,
		pkCol:   -1,
		indexes: make(map[string]*index),
	}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIdx[lc]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column %q in table %q", c.Name, name)
		}
		t.colIdx[lc] = i
		if c.PrimaryKey {
			if t.pkCol >= 0 {
				return nil, fmt.Errorf("sqldb: multiple primary keys in table %q", name)
			}
			t.pkCol = i
		}
	}
	if t.pkCol >= 0 {
		t.indexes["primary"] = &index{name: "primary", col: t.pkCol, unique: true,
			m: make(map[indexKey][]int64)}
	}
	return t, nil
}

// assignAI returns the next AUTO_INCREMENT value and advances the counter by
// the configured stride.
func (t *Table) assignAI() int64 {
	v := t.nextAI
	if t.aiStride > 1 {
		t.nextAI += t.aiStride
	} else {
		t.nextAI++
	}
	return v
}

// noteExplicitAI advances the counter past an explicitly supplied value,
// keeping it in the configured congruence class — so a replica synced with
// explicit ids assigns the same next id as its source.
func (t *Table) noteExplicitAI(v int64) {
	if v < t.nextAI {
		return
	}
	t.nextAI = t.alignAI(v + 1)
}

// alignAI returns the smallest value >= from in the configured congruence
// class (from itself when no stride is set).
func (t *Table) alignAI(from int64) int64 {
	if t.aiStride <= 1 {
		return from
	}
	r := (t.aiOffset - from) % t.aiStride
	if r < 0 {
		r += t.aiStride
	}
	return from + r
}

// setAutoInc applies ALTER TABLE ... AUTO_INCREMENT: zero fields leave their
// setting unchanged; next pins the counter exactly, otherwise the counter is
// re-aligned to the (possibly new) congruence class.
func (t *Table) setAutoInc(offset, stride, next int64) {
	if offset > 0 {
		t.aiOffset = offset
	}
	if stride > 0 {
		t.aiStride = stride
	}
	if next > 0 {
		t.nextAI = next
		return
	}
	t.nextAI = t.alignAI(t.nextAI)
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the schema in declaration order.
func (t *Table) Columns() []Column { return t.columns }

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int { return len(t.rows) }

// colOf resolves a column name (case-insensitive).
func (t *Table) colOf(name string) (int, error) {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("sqldb: unknown column %q in table %q", name, t.name)
}

// addIndex creates a secondary index over col and backfills it.
func (t *Table) addIndex(name string, col int, unique bool) error {
	key := strings.ToLower(name)
	if _, dup := t.indexes[key]; dup {
		return fmt.Errorf("sqldb: index %q already exists on %q", name, t.name)
	}
	ix := &index{name: name, col: col, unique: unique, m: make(map[indexKey][]int64)}
	for id, r := range t.rows {
		k := r[col].key()
		if unique && len(ix.m[k]) > 0 {
			return fmt.Errorf("sqldb: duplicate value %v building unique index %q", r[col], name)
		}
		ix.m[k] = append(ix.m[k], id)
	}
	t.indexes[key] = ix
	return nil
}

// indexOn returns an index whose key column is col, preferring unique ones.
func (t *Table) indexOn(col int) *index {
	var found *index
	for _, ix := range t.indexes {
		if ix.col != col {
			continue
		}
		if ix.unique {
			return ix
		}
		found = ix
	}
	return found
}

// insert stores a row (already in schema order, AUTO_INCREMENT resolved) and
// maintains indexes. It returns the rowid.
func (t *Table) insert(r Row) (int64, error) {
	if len(r) != len(t.columns) {
		return 0, fmt.Errorf("sqldb: row width %d != %d columns in %q",
			len(r), len(t.columns), t.name)
	}
	for i, c := range t.columns {
		if c.NotNull && r[i].IsNull() {
			return 0, fmt.Errorf("sqldb: NULL in NOT NULL column %q.%q", t.name, c.Name)
		}
	}
	for _, ix := range t.indexes {
		if ix.unique {
			k := r[ix.col].key()
			if len(ix.m[k]) > 0 {
				return 0, fmt.Errorf("sqldb: duplicate key %v for unique index %q on %q",
					r[ix.col], ix.name, t.name)
			}
		}
	}
	id := t.nextID
	t.nextID++
	t.rows[id] = r
	t.rowOrder = append(t.rowOrder, id)
	for _, ix := range t.indexes {
		k := r[ix.col].key()
		ix.m[k] = append(ix.m[k], id)
	}
	return id, nil
}

// update rewrites columns of the row at id, maintaining indexes. The stored
// row is replaced, never mutated in place: frozen snapshots share Row slices
// with live storage, so a row that has ever been stored must stay immutable.
func (t *Table) update(id int64, set map[int]Value) error {
	r, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("sqldb: update of missing rowid %d in %q", id, t.name)
	}
	// Constraint checks first so a violation leaves row and indexes untouched.
	for _, ix := range t.indexes {
		nv, changed := set[ix.col]
		if !changed || Equal(nv, r[ix.col]) {
			continue
		}
		if ix.unique && len(ix.m[nv.key()]) > 0 {
			return fmt.Errorf("sqldb: duplicate key %v for unique index %q on %q",
				nv, ix.name, t.name)
		}
	}
	for col, nv := range set {
		if t.columns[col].NotNull && nv.IsNull() {
			return fmt.Errorf("sqldb: NULL in NOT NULL column %q.%q",
				t.name, t.columns[col].Name)
		}
	}
	nr := make(Row, len(r))
	copy(nr, r)
	for col, nv := range set {
		for _, ix := range t.indexes {
			if ix.col != col {
				continue
			}
			ix.remove(r[col].key(), id)
			ix.m[nv.key()] = append(ix.m[nv.key()], id)
		}
		nr[col] = nv
	}
	t.rows[id] = nr
	return nil
}

// remove drops id from the posting list of key k.
func (ix *index) remove(k indexKey, id int64) {
	list := ix.m[k]
	for i, v := range list {
		if v == id {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(ix.m, k)
	} else {
		ix.m[k] = list
	}
}

// deleteRow removes the row at id from storage and all indexes.
func (t *Table) deleteRow(id int64) {
	r, ok := t.rows[id]
	if !ok {
		return
	}
	for _, ix := range t.indexes {
		ix.remove(r[ix.col].key(), id)
	}
	delete(t.rows, id)
	// The id stays in rowOrder as a tombstone that scans skip. Compacting
	// here, under the write lock, once tombstones outnumber live rows keeps
	// deletes amortized O(1) and scans read-only — any number of them run
	// concurrently under the table's read lock.
	if len(t.rowOrder) > 2*len(t.rows) {
		live := t.rowOrder[:0]
		for _, id := range t.rowOrder {
			if _, ok := t.rows[id]; ok {
				live = append(live, id)
			}
		}
		t.rowOrder = live
	}
}

// scan calls fn for each live row in insertion order, skipping the
// tombstones deleteRow leaves in rowOrder. It writes nothing, and fn must
// not mutate the table.
func (t *Table) scan(fn func(id int64, r Row) error) error {
	for _, id := range t.rowOrder {
		if r, ok := t.rows[id]; ok {
			if err := fn(id, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// restoreCols reverts columns of the row at id to their pre-statement
// values, maintaining indexes. It is the undo path of update: constraints
// are not rechecked — the old values were valid when the statement ran, and
// undo applies in reverse order, so the pre-image is always restorable.
// Like update, it replaces the stored row (copy-on-write) rather than
// mutating it, since snapshots may share the current slice.
func (t *Table) restoreCols(id int64, old map[int]Value) {
	r, ok := t.rows[id]
	if !ok {
		return
	}
	nr := make(Row, len(r))
	copy(nr, r)
	for col, ov := range old {
		for _, ix := range t.indexes {
			if ix.col != col {
				continue
			}
			ix.remove(r[col].key(), id)
			ix.m[ov.key()] = append(ix.m[ov.key()], id)
		}
		nr[col] = ov
	}
	t.rows[id] = nr
}

// undoInsert removes an inserted row and restores the rowid/AUTO_INCREMENT
// counters — the undo path of insert. Unlike a plain delete, the rowid is
// also compacted out of rowOrder immediately: the restored counters mean
// the id WILL be reused by the next insert, and a stale entry would make
// scans emit that future row twice.
func (t *Table) undoInsert(id, prevNextID, prevNextAI int64) {
	t.deleteRow(id)
	pos := sort.Search(len(t.rowOrder), func(i int) bool { return t.rowOrder[i] >= id })
	if pos < len(t.rowOrder) && t.rowOrder[pos] == id {
		t.rowOrder = append(t.rowOrder[:pos], t.rowOrder[pos+1:]...)
	}
	t.nextID = prevNextID
	t.nextAI = prevNextAI
}

// restoreRow resurrects a deleted row under its original rowid, maintaining
// indexes and scan order. rowOrder is always ascending (rowids are assigned
// monotonically), so a sorted insert restores the original scan position;
// the id is still present unless a later delete compacted it away.
func (t *Table) restoreRow(id int64, r Row) {
	if _, live := t.rows[id]; live {
		return
	}
	t.rows[id] = r
	for _, ix := range t.indexes {
		k := r[ix.col].key()
		ix.m[k] = append(ix.m[k], id)
	}
	pos := sort.Search(len(t.rowOrder), func(i int) bool { return t.rowOrder[i] >= id })
	if pos < len(t.rowOrder) && t.rowOrder[pos] == id {
		return
	}
	t.rowOrder = append(t.rowOrder, 0)
	copy(t.rowOrder[pos+1:], t.rowOrder[pos:])
	t.rowOrder[pos] = id
}

// lookup returns the rowids matching value v on column col via an index, or
// ok=false when no index covers the column.
func (t *Table) lookup(col int, v Value) (ids []int64, ok bool) {
	ix := t.indexOn(col)
	if ix == nil {
		return nil, false
	}
	list := ix.m[v.key()]
	if ix.sorted {
		// Frozen-snapshot index: the posting list was sorted at freeze time
		// and nobody mutates it, so it can be returned as-is.
		return list, true
	}
	// Copy and sort for deterministic result order.
	out := make([]int64, len(list))
	copy(out, list)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// freeze builds an immutable copy of t's current state for snapshot reads.
// The caller must hold at least the table's read lock. Schema (columns,
// colIdx) and the Row slices themselves are shared — rows are never mutated
// in place once stored — while the row map, scan order and index posting
// lists are copied so subsequent writers cannot disturb the snapshot.
// rowOrder is copied without its tombstones, and posting lists are
// pre-sorted so frozen lookups skip the per-lookup copy-and-sort.
func (t *Table) freeze() *Table {
	sp := &Table{
		name:     t.name,
		columns:  t.columns,
		colIdx:   t.colIdx,
		rows:     make(map[int64]Row, len(t.rows)),
		nextID:   t.nextID,
		nextAI:   t.nextAI,
		pkCol:    t.pkCol,
		aiOffset: t.aiOffset,
		aiStride: t.aiStride,
		indexes:  make(map[string]*index, len(t.indexes)),
		rowOrder: make([]int64, 0, len(t.rows)),
		snapSeq:  t.version.Load(),
	}
	for _, id := range t.rowOrder {
		r, ok := t.rows[id]
		if !ok {
			continue
		}
		sp.rows[id] = r
		sp.rowOrder = append(sp.rowOrder, id)
	}
	for key, ix := range t.indexes {
		m := make(map[indexKey][]int64, len(ix.m))
		for k, list := range ix.m {
			cp := make([]int64, len(list))
			copy(cp, list)
			sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
			m[k] = cp
		}
		sp.indexes[key] = &index{name: ix.name, col: ix.col, unique: ix.unique, sorted: true, m: m}
	}
	return sp
}
