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
	"unsafe"
)

// Kind discriminates Value representations.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// Value is a dynamically typed SQL value, two words wide. The zero value is
// NULL.
//
// p tags the kind and n carries the payload: p nil is NULL (so zeroed memory
// is NULL); p pointing at one of the three tag bytes below is an integer
// (n its bits), a float (n its IEEE bits) or the empty string; any other p is
// the first byte of a string n bytes long, and keeps that string's bytes
// alive as the string header it came from did. A string never starts at a tag
// byte: nothing outside this file can name them.
//
// The leading [0]func() makes Value non-comparable: == on two of these
// would compare strings by address, not by content. Use Equal or Compare.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// tags are the addresses that mark the kinds with no string bytes to point at.
var tags [3]byte

var (
	tagInt   = unsafe.Pointer(&tags[0])
	tagFloat = unsafe.Pointer(&tags[1])
	tagEmpty = unsafe.Pointer(&tags[2])
)

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{p: tagInt, n: uint64(v)} }

// Float returns a float value.
func Float(v float64) Value { return Value{p: tagFloat, n: math.Float64bits(v)} }

// String returns a string value.
func String(v string) Value {
	if v == "" {
		return Value{p: tagEmpty}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind {
	switch v.p {
	case nil:
		return KindNull
	case tagInt:
		return KindInt
	case tagFloat:
		return KindFloat
	}
	return KindString
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// int, float and str read the payload of a value of that kind.
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) str() string    { return unsafe.String((*byte)(v.p), int(v.n)) }

// AsInt converts to int64 (strings parse; NULL is 0).
func (v Value) AsInt() int64 {
	switch v.Kind() {
	case KindInt:
		return v.int()
	case KindFloat:
		return int64(v.float())
	case KindString:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.str()), 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat converts to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind() {
	case KindInt:
		return float64(v.int())
	case KindFloat:
		return v.float()
	case KindString:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.str()), 64)
		return f
	default:
		return 0
	}
}

// AsString converts to a string ("" for NULL).
func (v Value) AsString() string {
	switch v.Kind() {
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	default:
		return ""
	}
}

// Truthy reports SQL truthiness (non-zero, non-empty, non-NULL).
func (v Value) Truthy() bool {
	switch v.Kind() {
	case KindInt:
		return v.int() != 0
	case KindFloat:
		return v.float() != 0
	case KindString:
		return v.n != 0
	default:
		return false
	}
}

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	if v.Kind() == KindString {
		return fmt.Sprintf("%q", v.str())
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
	if a.Kind() == KindString && b.Kind() == KindString {
		return strings.Compare(a.str(), b.str())
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

// word returns the one integer an index entry keeps of the value (table.go's
// ixEntry). NULL is 0. A number is the usual order-preserving image of its
// AsFloat, which is never 0: Int(3) and Float(3) share a word, as Compare
// treats them equal, and so do -0 and +0, and every NaN. A string is its
// 64-bit FNV-1a hash: equal strings share a word, but so may two different
// strings, or a string and a number or NULL — an index over strings checks
// each row's own value (Table.eachPosted).
func (v Value) word() uint64 {
	switch v.Kind() {
	case KindNull:
		return 0
	case KindString:
		s, h := v.str(), uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}
	f := v.AsFloat()
	switch {
	case f == 0:
		f = 0 // -0 and +0 are one word
	case f != f:
		f = math.NaN() // every NaN is one word
	}
	// Flip all of a negative's bits, the sign of the rest.
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Row is one table row. Rows are value slices in schema column order.
type Row []Value

// Note: results may alias storage rows, as every version of a table that
// holds a row aliases it — the committed state, views, forks, each index
// entry. That is safe because a stored row is immutable: Table.update
// stores a new slice rather than mutating the old one, and a row read back
// from a table has no capacity past its width, so an append to it copies.

// rowRef is a row as the trees store it: the address of its first Value and
// nothing else, one word where the slice header is three. What it leaves out
// is the same for every row of a table — len(t.columns), which Table.put
// enforces — so row can put it back.
type rowRef struct{ first *Value }

// refOf returns the reference to r, which has at least one column as every
// table does.
func refOf(r Row) rowRef { return rowRef{&r[0]} }

// row returns the stored row, given its table's width.
func (ref rowRef) row(width int) Row { return unsafe.Slice(ref.first, width) }
