package sqldb

import (
	"fmt"
	"maps"
	"math"
	"slices"
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

// Table is a catalog entry — schema, write lock, the last committed state —
// or a detached copy of one: the immutable view a reader executes against, or
// the private fork a transaction writes (mvcc.go). Both are the same type
// because the executor reads and writes either through the same methods; a
// detached table never uses the lock, the mutex or the version.
//
// Nothing here is goroutine-safe by itself. The committed state of a catalog
// table is touched only under mu: by an auto-commit statement applying
// itself in place, by COMMIT swapping a fork in, and by whoever clones it. A
// detached table belongs to whoever detached it.
type Table struct {
	name    string
	columns []Column
	colIdx  map[string]int // lower-cased name -> position
	pkCol   int            // -1 when no primary key

	// aiOffset/aiStride configure strided AUTO_INCREMENT assignment
	// (MySQL's auto_increment_offset / auto_increment_increment): values are
	// drawn from the congruence class ≡ aiOffset (mod aiStride), so each
	// shard of a partitioned table assigns from a disjoint id space. Zero
	// stride means the classic dense sequence.
	aiOffset int64
	aiStride int64

	tableState

	lock    tableLock     // the table's two-phase write lock (locks.go)
	mu      sync.Mutex    // leaf: guards tableState and view installation
	version atomic.Uint64 // committed publications, bumped under mu
	view    atomic.Pointer[Table]
	seq     uint64 // on a view: the version it was cloned at
}

// tableState is everything one version of a table consists of: tree headers
// and two counters, so cloning it is O(indexes) and shares every row. The
// trees hold rows as rowRefs (value.go); scan, eachPosted and the checkpoint
// writer are where they become Rows again.
type tableState struct {
	rows cowTree[int64, rowRef] // rowid -> row; a scan is rowid order
	// indexes maps lower-cased index name to its definition. The map is
	// replaced, never written, once the table is in the catalog, so clones
	// share it; postings[ix.slot] holds that index's entries.
	indexes  map[string]*index
	postings []cowTree[ixEntry, rowRef]
	nextID   int64 // next rowid
	nextAI   int64 // next AUTO_INCREMENT value
}

// index defines an index over one column: its entries are the (word of the
// column value, rowid) pairs of every row, ordered, so the rows under one
// word are a contiguous run in rowid order — each entry carrying its row (the
// reference, not a copy), so a probe is one descent, not one per tree.
type index struct {
	name   string
	col    int
	unique bool
	slot   int
}

// ixEntry is the key of one index entry, two words: Value.word of the row's
// value in the indexed column, and the rowid.
type ixEntry struct {
	w  uint64
	id int64
}

// searchEntries is the index trees' key order — by word, then rowid — as
// the binary search over a node's keys.
func searchEntries(keys []ixEntry, k ixEntry) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := keys[m]; e.w < k.w || e.w == k.w && e.id < k.id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(keys) && keys[lo] == k
}

// sameWord is the index trees' run relation (cowTree.run): the entries of
// one word are one posting list.
func sameWord(a, b ixEntry) bool { return a.w == b.w }

// clone returns a state that shares every node with s; writes to either
// copy what they touch and never show in the other.
func (s *tableState) clone() tableState {
	mine, theirs := new(byte), new(byte)
	c := *s
	c.rows = s.rows.clone(mine, theirs)
	c.postings = make([]cowTree[ixEntry, rowRef], len(s.postings))
	for i := range s.postings {
		c.postings[i] = s.postings[i].clone(mine, theirs)
	}
	return c
}

// detach returns a table of its own holding a clone of t's state. On a
// catalog table the caller holds t.mu.
func (t *Table) detach() *Table {
	return &Table{name: t.name, columns: t.columns, colIdx: t.colIdx, pkCol: t.pkCol,
		aiOffset: t.aiOffset, aiStride: t.aiStride, tableState: t.tableState.clone()}
}

func newTable(name string, cols []Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %q needs at least one column", name)
	}
	t := &Table{
		name:    name,
		columns: cols,
		colIdx:  make(map[string]int, len(cols)),
		pkCol:   -1,
		lock:    make(tableLock, 1),
	}
	t.rows.search = slices.BinarySearch[[]int64]
	t.nextID, t.nextAI = 1, 1
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
		t.addIndex("primary", t.pkCol, true) // an empty table has no duplicates
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

// RowCount returns the number of committed rows.
func (t *Table) RowCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows.len()
}

// colOf resolves a column name (case-insensitive).
func (t *Table) colOf(name string) (int, error) {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("sqldb: unknown column %q in table %q", name, t.name)
}

// addIndex creates an index over col and backfills it. The table is
// unchanged when the backfill finds a duplicate.
func (t *Table) addIndex(name string, col int, unique bool) error {
	key := strings.ToLower(name)
	if _, dup := t.indexes[key]; dup {
		return fmt.Errorf("sqldb: index %q already exists on %q", name, t.name)
	}
	ix := &index{name: name, col: col, unique: unique, slot: len(t.postings)}
	t.postings = append(t.postings, cowTree[ixEntry, rowRef]{owner: t.rows.owner, search: searchEntries, run: sameWord})
	err := t.scan(func(id int64, r Row) error {
		if unique && t.posted(ix, r[col]) {
			return fmt.Errorf("sqldb: duplicate value %v building unique index %q", r[col], name)
		}
		t.postings[ix.slot].set(ixEntry{r[col].word(), id}, refOf(r))
		return nil
	})
	if err != nil {
		t.postings = t.postings[:ix.slot]
		return err
	}
	// Views share the map: extend a copy, never the one they read.
	defs := map[string]*index{key: ix}
	maps.Copy(defs, t.indexes)
	t.indexes = defs
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

// hashed reports whether ix's column holds strings — every type but INT
// and FLOAT, as coerce has it — whose words are hashes.
func (t *Table) hashed(ix *index) bool {
	typ := t.columns[ix.col].Type
	return typ != sqlparse.TypeInt && typ != sqlparse.TypeFloat
}

// eachPosted calls fn, in rowid order until it returns false, with every row
// whose ix column holds v's index key: NULL for NULL, the same string, or a
// number with v's word. The run of entries under v's word is exactly that on
// a numeric column; on a string column a word may be another string's (or
// NULL's), so there each row's own value is checked too.
func (t *Table) eachPosted(ix *index, v Value, fn func(id int64, r Row) bool) {
	w, width, check := v.word(), len(t.columns), t.hashed(ix)
	t.postings[ix.slot].ascend(&ixEntry{w, math.MinInt64}, func(e ixEntry, ref rowRef) bool {
		if e.w != w {
			return false
		}
		r := ref.row(width)
		if check && !sameKey(r[ix.col], v) {
			return true // another key under this word
		}
		return fn(e.id, r)
	})
}

// sameKey reports whether a and b are one index key: both NULL, one string,
// or numbers with one word.
func sameKey(a, b Value) bool {
	as, bs := a.Kind() == KindString, b.Kind() == KindString
	if as || bs {
		return as && bs && a.str() == b.str()
	}
	return a.word() == b.word()
}

// posted reports whether any row has v's index key in ix.
func (t *Table) posted(ix *index, v Value) (found bool) {
	t.eachPosted(ix, v, func(int64, Row) bool { found = true; return false })
	return found
}

// probe calls fn, in rowid order until it returns false, with exactly the
// rows whose ix column Equal holds equal to v, and reports whether the index
// could tell; false, with fn never called, leaves the predicate to a scan.
//
// NULL equals nothing. A numeric column is probed with v's AsFloat, which is
// how Compare converts a string it meets a number with — unless a NaN is
// about, which Compare holds equal to every number: a NaN probe, or a FLOAT
// column holding one, is left to the scan. A string column is probed with
// strings only: a number equals every string whose AsFloat it is — "1",
// " 1 ", "1.0", and for 0 every string that does not parse — which no one
// word gathers.
func (t *Table) probe(ix *index, v Value, fn func(id int64, r Row) bool) bool {
	switch {
	case v.IsNull():
		return true
	case t.hashed(ix):
		if v.Kind() != KindString {
			return false
		}
	default:
		f := v.AsFloat()
		if f != f || t.columns[ix.col].Type == sqlparse.TypeFloat && t.posted(ix, Float(math.NaN())) {
			return false
		}
		v = Float(f)
	}
	t.eachPosted(ix, v, fn)
	return true
}

// put stores r under id and posts it in every index, checking nothing but
// its width: the trees keep no length beside a row, so every reader trusts
// each stored row to be len(t.columns) wide, and only a bug in a caller makes
// one that is not. It is also how a row is replaced: entries whose word did
// not change get the new row.
func (t *Table) put(id int64, r Row) {
	if len(r) != len(t.columns) {
		panic(fmt.Sprintf("sqldb: put of a %d-wide row into %q, which has %d columns",
			len(r), t.name, len(t.columns)))
	}
	ref := refOf(r)
	t.rows.set(id, ref)
	for _, ix := range t.indexes {
		t.postings[ix.slot].set(ixEntry{r[ix.col].word(), id}, ref)
	}
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
		if ix.unique && t.posted(ix, r[ix.col]) {
			return 0, fmt.Errorf("sqldb: duplicate key %v for unique index %q on %q",
				r[ix.col], ix.name, t.name)
		}
	}
	id := t.nextID
	t.nextID++
	t.put(id, r)
	return id, nil
}

// update rewrites columns of r, the row stored at id, maintaining indexes.
// The stored row is replaced, never mutated in place: views, forks and query
// results share Row slices, so a row that has ever been stored stays
// immutable.
func (t *Table) update(id int64, r Row, set map[int]Value) error {
	// Constraint checks first so a violation leaves row and indexes untouched.
	for _, ix := range t.indexes {
		nv, changed := set[ix.col]
		if !changed || Equal(nv, r[ix.col]) {
			continue
		}
		if ix.unique && t.posted(ix, nv) {
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
		nr[col] = nv
	}
	for _, ix := range t.indexes {
		if old := r[ix.col].word(); old != nr[ix.col].word() {
			t.postings[ix.slot].delete(ixEntry{old, id})
		}
	}
	t.put(id, nr)
	return nil
}

// deleteRow removes r, the row stored at id, from storage and all indexes.
func (t *Table) deleteRow(id int64, r Row) {
	for _, ix := range t.indexes {
		t.postings[ix.slot].delete(ixEntry{r[ix.col].word(), id})
	}
	t.rows.delete(id)
}

// scan calls fn for each row in rowid order — insertion order, since rowids
// only grow. fn must not write the table.
func (t *Table) scan(fn func(id int64, r Row) error) (err error) {
	width := len(t.columns)
	t.rows.ascend(nil, func(id int64, ref rowRef) bool {
		err = fn(id, ref.row(width))
		return err == nil
	})
	return err
}
