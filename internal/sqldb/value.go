// Package sqldb is an in-memory relational database engine modeled on the
// MySQL 3.23 / MyISAM substrate the paper measures: typed tables with
// ordered indexes, a SQL executor over the dialect in sqlparse, and
// MyISAM's write granularity — one writer per table, an implicit table lock
// per statement — under BEGIN/COMMIT/ROLLBACK transactions that hold their
// table write locks to the end, with reads served from committed
// copy-on-write versions that no lock guards.
//
// The engine is the storage tier for both benchmark applications and is
// exposed over TCP by package wire, whose client takes the place of the
// MM-MySQL JDBC driver and PHP's native MySQL driver in the original paper.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates Value representations.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// Value is a dynamically typed SQL value. The zero value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt converts to int64 (strings parse; NULL is 0).
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindFloat:
		return int64(v.f)
	case KindString:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat converts to float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	case KindString:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f
	default:
		return 0
	}
}

// AsString converts to a string ("" for NULL).
func (v Value) AsString() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return ""
	}
}

// Truthy reports SQL truthiness (non-zero, non-empty, non-NULL).
func (v Value) Truthy() bool {
	switch v.kind {
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	if v.kind == KindString {
		return fmt.Sprintf("%q", v.s)
	}
	return v.AsString()
}

// Compare orders two values: NULL sorts first; numeric kinds compare
// numerically (mixed int/float allowed); strings compare lexicographically.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.s, b.s)
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality (NULL never equals anything, matching the
// three-valued logic the executor needs for WHERE).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// key returns the value's index key. Numeric kinds normalize so that Int(3)
// and Float(3) collide, as Compare treats them equal.
func (v Value) key() indexKey {
	switch v.kind {
	case KindNull:
		return indexKey{}
	case KindString:
		return indexKey{ord: math.MaxUint64, s: v.s}
	}
	f := v.AsFloat()
	switch {
	case f == 0:
		f = 0 // -0 and +0 are one key
	case f != f:
		f = math.NaN() // every NaN is one key, and not one of the two reserved
	}
	// The usual order-preserving map of a float's bits: flip all of a
	// negative's, the sign of the rest.
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return indexKey{ord: ^b}
	}
	return indexKey{ord: b | 1<<63}
}

// indexKey is the comparable, ordered form of a Value that index entries
// are sorted by: one integer compare orders NULL (0) before every number
// (in numeric order) before every string (all at MaxUint64, told apart by
// s). Equal keys are equal values; the order among them is only ever used
// to keep equal keys adjacent.
type indexKey struct {
	ord uint64
	s   string
}

// Row is one table row. Rows are value slices in schema column order.
type Row []Value

// Note: results may alias storage rows, as every version of a table that
// holds a row aliases it — the committed state, views, forks, each index
// entry. That is safe because a stored row is immutable: Table.update
// stores a new slice rather than mutating the old one.
