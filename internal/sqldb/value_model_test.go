package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// modelValue is the representation Value had before it became two words —
// one field per kind, 40 bytes — with the methods it had then. It is the
// oracle: whatever the packed Value does, this is what it has to equal.
type modelValue struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// value builds the Value the model stands for, through the constructors.
func (m modelValue) value() Value {
	switch m.kind {
	case KindInt:
		return Int(m.i)
	case KindFloat:
		return Float(m.f)
	case KindString:
		return String(m.s)
	}
	return Null()
}

func (m modelValue) asInt() int64 {
	switch m.kind {
	case KindInt:
		return m.i
	case KindFloat:
		return int64(m.f)
	case KindString:
		n, _ := strconv.ParseInt(strings.TrimSpace(m.s), 10, 64)
		return n
	}
	return 0
}

func (m modelValue) asFloat() float64 {
	switch m.kind {
	case KindInt:
		return float64(m.i)
	case KindFloat:
		return m.f
	case KindString:
		f, _ := strconv.ParseFloat(strings.TrimSpace(m.s), 64)
		return f
	}
	return 0
}

func (m modelValue) asString() string {
	switch m.kind {
	case KindInt:
		return strconv.FormatInt(m.i, 10)
	case KindFloat:
		return strconv.FormatFloat(m.f, 'g', -1, 64)
	case KindString:
		return m.s
	}
	return ""
}

func (m modelValue) truthy() bool {
	switch m.kind {
	case KindInt:
		return m.i != 0
	case KindFloat:
		return m.f != 0
	case KindString:
		return m.s != ""
	}
	return false
}

func (m modelValue) String() string {
	switch m.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return fmt.Sprintf("%q", m.s)
	}
	return m.asString()
}

func modelCompare(a, b modelValue) int {
	an, bn := a.kind == KindNull, b.kind == KindNull
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
	af, bf := a.asFloat(), b.asFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

func modelEqual(a, b modelValue) bool {
	return a.kind != KindNull && b.kind != KindNull && modelCompare(a, b) == 0
}

// word is the index word as specified: NULL 0, a string its FNV-1a hash
// (the standard library's, not the engine's loop), a number the
// order-preserving image of its float with -0 and every NaN folded.
func (m modelValue) word() uint64 {
	switch m.kind {
	case KindNull:
		return 0
	case KindString:
		h := fnv.New64a()
		h.Write([]byte(m.s))
		return h.Sum64()
	}
	f := m.asFloat()
	switch {
	case f == 0:
		f = 0
	case f != f:
		f = math.NaN()
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// appendWAL is the log encoding as it was written from the four fields.
func (m modelValue) appendWAL(b []byte) []byte {
	b = append(b, byte(m.kind))
	switch m.kind {
	case KindInt:
		b = binary.LittleEndian.AppendUint64(b, uint64(m.i))
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.f))
	case KindString:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(m.s)))
		b = append(b, m.s...)
	}
	return b
}

// identical reports whether a and b are the same value bit for bit: the same
// kind and the same payload, so NaN is identical to itself, -0 is not +0 and
// Int(3) is not Float(3).
func identical(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == KindString {
		return a.AsString() == b.AsString()
	}
	return a.n == b.n
}

// sameFloat is == on floats with every NaN told apart by its bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkValue holds one value to its model on everything a single value does.
func checkValue(t *testing.T, m modelValue) {
	t.Helper()
	v := m.value()
	if v.Kind() != m.kind || v.IsNull() != (m.kind == KindNull) {
		t.Fatalf("%v: kind %d null %v, model kind %d", m, v.Kind(), v.IsNull(), m.kind)
	}
	if v.AsInt() != m.asInt() || !sameFloat(v.AsFloat(), m.asFloat()) || v.AsString() != m.asString() {
		t.Fatalf("%v: AsInt %d AsFloat %v AsString %q, model %d %v %q", m,
			v.AsInt(), v.AsFloat(), v.AsString(), m.asInt(), m.asFloat(), m.asString())
	}
	if v.Truthy() != m.truthy() || v.String() != m.String() {
		t.Fatalf("%v: Truthy %v String %s, model %v %s", m, v.Truthy(), v.String(), m.truthy(), m.String())
	}
	if v.word() != m.word() {
		t.Fatalf("%v: word %#x, model %#x", m, v.word(), m.word())
	}
	enc := appendWALValue(nil, v)
	if want := m.appendWAL(nil); !bytes.Equal(enc, want) {
		t.Fatalf("%v: WAL bytes %x, model %x", m, enc, want)
	}
	r := leReader{b: enc}
	if back := r.value(); r.err != nil || len(r.b) != 0 || !identical(back, v) {
		t.Fatalf("%v: WAL round trip gave %v (rest %d, err %v)", m, back, len(r.b), r.err)
	}
}

// checkPair holds two values to their models on the binary operations.
func checkPair(t *testing.T, a, b modelValue) {
	t.Helper()
	if got, want := Compare(a.value(), b.value()), modelCompare(a, b); got != want {
		t.Fatalf("Compare(%v, %v) = %d, model %d", a, b, got, want)
	}
	if got, want := Equal(a.value(), b.value()), modelEqual(a, b); got != want {
		t.Fatalf("Equal(%v, %v) = %v, model %v", a, b, got, want)
	}
}

// edgeValues are the values a packed layout is most likely to get wrong.
func edgeValues() []modelValue {
	ms := []modelValue{{}}
	for _, i := range []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, -(1<<53 + 1)} {
		ms = append(ms, modelValue{kind: KindInt, i: i})
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1 << 53, 1<<53 + 2, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN, least payload
		math.Float64frombits(0x7fffffffffffffff), // every payload bit
		math.Float64frombits(0xfff8000000000000), // negative quiet NaN
		math.Float64frombits(0xfff0000000000001)} {
		ms = append(ms, modelValue{kind: KindFloat, f: f})
	}
	for _, s := range []string{"", "\x00", "\x00\x00", "a", "ab", " 12 ", "12", "1e3", "-0", "NaN", "x\xffy", "NULL", strings.Repeat("z", 300)} {
		ms = append(ms, modelValue{kind: KindString, s: s})
	}
	return ms
}

// randomValue draws a value of any kind; floats are drawn by their bits, so
// NaN payloads, denormals and infinities all come up.
func randomValue(rng *rand.Rand) modelValue {
	switch rng.Intn(4) {
	case 0:
		return modelValue{}
	case 1:
		return modelValue{kind: KindInt, i: int64(rng.Uint64()) >> uint(rng.Intn(64))}
	case 2:
		bits := rng.Uint64()
		if rng.Intn(4) == 0 {
			bits |= 0x7ff0000000000000 // a NaN (or an infinity) with a random payload
		}
		return modelValue{kind: KindFloat, f: math.Float64frombits(bits)}
	}
	const alphabet = " 0123456789.-e\x00az"
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return modelValue{kind: KindString, s: string(b)}
}

func TestValueModel(t *testing.T) {
	if !Null().IsNull() || (Value{}).Kind() != KindNull {
		t.Fatal("the zero Value is not NULL")
	}
	ms := edgeValues()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		ms = append(ms, randomValue(rng))
	}
	for _, m := range ms {
		checkValue(t, m)
	}
	edges := edgeValues()
	for _, a := range edges {
		for _, b := range edges {
			checkPair(t, a, b)
		}
	}
	for i := 0; i < 20000; i++ {
		checkPair(t, ms[rng.Intn(len(ms))], ms[rng.Intn(len(ms))])
	}
}

// TestValueKeepsSubstringAlive stores strings that are slices of a larger
// buffer nothing else refers to: the Value's pointer into the middle of it
// must keep the bytes alive and unmoved through collections.
func TestValueKeepsSubstringAlive(t *testing.T) {
	const n = 200
	vals := make([]Value, n)
	want := make([]string, n)
	for i := range vals {
		buf := strings.Repeat(fmt.Sprintf("row %04d;", i), 64) // heap, unique per i
		from := 9 * (i % 60)
		vals[i] = String(buf[from : from+9+i%5])
		want[i] = strings.Clone(buf[from : from+9+i%5])
		if i%7 == 0 {
			vals[i], want[i] = String(buf[from:from]), "" // empty: must not pin buf, must still read back
		}
	}
	var junk [][]byte
	for round := 0; round < 3; round++ {
		runtime.GC()
		for i := 0; i < 256; i++ { // reuse whatever was freed
			junk = append(junk, bytes.Repeat([]byte{0xAA}, 576))
		}
	}
	runtime.KeepAlive(junk)
	for i, v := range vals {
		if v.Kind() != KindString || v.AsString() != want[i] {
			t.Fatalf("value %d reads %v after GC, want %q", i, v, want[i])
		}
	}
}

// FuzzValue drives the same oracle from fuzzed bits: two values, each a kind
// selector, eight bytes of integer or float payload, and a string.
func FuzzValue(f *testing.F) {
	f.Add(uint8(0), uint64(0), "", uint8(0), uint64(0), "")
	f.Add(uint8(1), uint64(1<<53+1), "", uint8(2), math.Float64bits(1<<53), "")
	f.Add(uint8(2), uint64(0x7ff8000000000001), "", uint8(2), uint64(1)<<63, "")
	f.Add(uint8(3), uint64(0), "\x00", uint8(3), uint64(0), "")
	f.Add(uint8(3), uint64(0), " 42 ", uint8(1), uint64(42), "")
	f.Fuzz(func(t *testing.T, k1 uint8, n1 uint64, s1 string, k2 uint8, n2 uint64, s2 string) {
		mk := func(k uint8, n uint64, s string) modelValue {
			switch Kind(k % 4) {
			case KindInt:
				return modelValue{kind: KindInt, i: int64(n)}
			case KindFloat:
				return modelValue{kind: KindFloat, f: math.Float64frombits(n)}
			case KindString:
				return modelValue{kind: KindString, s: s}
			}
			return modelValue{}
		}
		a, b := mk(k1, n1, s1), mk(k2, n2, s2)
		checkValue(t, a)
		checkValue(t, b)
		checkPair(t, a, b)
		checkPair(t, b, a)
	})
}

// TestLayoutSizes pins what a stored value, a stored row and an index entry
// cost, so that a field added later cannot quietly grow every table.
func TestLayoutSizes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("Value is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(rowRef{}); n != 8 {
		t.Errorf("rowRef is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(ixEntry{}) + unsafe.Sizeof(rowRef{}); n != 24 {
		t.Errorf("an index entry and its row are %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(cowNode[ixEntry, rowRef]{}); n > 896 {
		t.Errorf("an index tree node is %d bytes, want at most 896", n)
	}
}

func TestPutRejectsWrongWidth(t *testing.T) {
	tab, err := newTable("t", []Column{{Name: "a", PrimaryKey: true}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{{}, {Int(1)}, {Int(1), Int(2), Int(3)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("put accepted a %d-wide row into a 2-column table", len(r))
				}
			}()
			tab.put(1, r)
		}()
	}
	if n := tab.rows.len(); n != 0 {
		t.Fatalf("%d rows stored by refused puts", n)
	}
	tab.put(1, Row{Int(1), Int(2)})
	if ref, ok := tab.rows.get(1); !ok || ref.row(2)[1].AsInt() != 2 {
		t.Fatalf("rows.get(1) = %v, %v", ref, ok)
	}
}

// TestResultRowAppendDoesNotAliasStorage: SELECT * hands out stored rows
// uncopied, so a caller's append to one must reallocate, not write into
// whatever lies behind the row in memory.
func TestResultRowAppendDoesNotAliasStorage(t *testing.T) {
	s := New().NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(10))")
	mustExec(t, s, "INSERT INTO t (id, name) VALUES (1, 'one'), (2, 'two'), (3, 'three')")
	for _, q := range []string{"SELECT * FROM t", "SELECT * FROM t WHERE id = 2"} {
		res := mustExec(t, s, q)
		for i, r := range res.Rows {
			if cap(r) != len(r) {
				t.Fatalf("%s: row %d has len %d cap %d", q, i, len(r), cap(r))
			}
			res.Rows[i] = append(r, String("scribble"), Int(-1))
		}
	}
	res := mustExec(t, s, "SELECT * FROM t")
	got := fmt.Sprint(res.Rows)
	if want := `[[1 "one"] [2 "two"] [3 "three"]]`; got != want {
		t.Fatalf("table after appends to result rows: %s, want %s", got, want)
	}
}
