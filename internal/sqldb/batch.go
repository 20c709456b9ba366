package sqldb

import "strings"

// batchRows is how many rows an InsertBatch sends per statement. Every
// database keeps the parsed text of each batch shape in its plan cache for
// good (about 24 B per '?'), so the size trades round trips against resident
// memory: 64 rows takes a population from one round trip per row to one per
// 64 for ~0.1 MB of plans per database, where 256 rows saved another fifth
// of a routed seed's time for ~0.5 MB.
const batchRows = 64

// InsertSQL is the text of a multi-row INSERT of rows rows into table's
// columns, every value a '?' parameter: "INSERT INTO t (a, b) VALUES (?, ?),
// (?, ?)". The cluster router builds each shard's part of a split INSERT
// with it, and InsertBatch its batches.
func InsertSQL(table string, cols []string, rows int) string {
	tuple := "(?" + strings.Repeat(", ?", len(cols)-1) + ")"
	var b strings.Builder
	b.Grow(len(table) + 32 + 8*len(cols) + rows*(len(tuple)+2))
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" (")
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString(") VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tuple)
	}
	return b.String()
}

// InsertBatch sends rows to one table in multi-row INSERTs of batchRows
// rows: Add buffers a row and sends a full batch, Flush sends the rest.
// Every full batch has the same text, so a population prepares two
// statements per table, not one per row.
type InsertBatch struct {
	db    Execer
	table string
	cols  []string
	args  []Value
}

// NewInsertBatch starts a batch of rows for table's columns on db.
func NewInsertBatch(db Execer, table string, cols ...string) *InsertBatch {
	return &InsertBatch{db: db, table: table, cols: cols}
}

// Add buffers one row, its values in column order, and sends the batch once
// it holds batchRows rows.
func (b *InsertBatch) Add(vals ...Value) error {
	if b.args == nil {
		b.args = make([]Value, 0, batchRows*len(b.cols))
	}
	b.args = append(b.args, vals...)
	if len(b.args) < batchRows*len(b.cols) {
		return nil
	}
	return b.Flush()
}

// Flush sends the buffered rows, if any. The argument slice is not reused:
// a transaction keeps its statements' arguments until it commits.
func (b *InsertBatch) Flush() error {
	rows := len(b.args) / len(b.cols)
	if rows == 0 {
		return nil
	}
	args := b.args
	b.args = nil
	_, err := b.db.Exec(InsertSQL(b.table, b.cols, rows), args...)
	return err
}
