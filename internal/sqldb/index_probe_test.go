package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// probeValues are the values an index probe is easiest to get wrong: one
// number as an int, a float and a string, -0 and +0, NaN and the infinities,
// ints that only compare equal as floats, strings that parse and strings
// that do not, the empty string and NULL.
var probeValues = []Value{
	Null(), Int(0), Int(1), Int(-1), Int(2), Int(1 << 53), Int(1<<53 + 1),
	Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(-2), Float(math.NaN()),
	Float(math.Inf(1)), Float(math.Inf(-1)), Float(1 << 53),
	String(""), String("0"), String("1"), String(" 1 "), String("1.0"), String("1.5"),
	String("-0"), String("NaN"), String("inf"), String("abc"), String("ABC"),
}

// oracleValue decodes one value from the front of b: a byte below 0xf0
// picks from probeValues; one above takes the next eight bytes as an int's
// or a float's bits, or some of them as a string.
func oracleValue(b []byte) (Value, []byte) {
	if len(b) == 0 {
		return Null(), b
	}
	c, b := b[0], b[1:]
	if c < 0xf0 || len(b) < 8 {
		return probeValues[int(c)%len(probeValues)], b
	}
	raw, b := b[:8], b[8:]
	switch n := binary.LittleEndian.Uint64(raw); c % 3 {
	case 0:
		return Int(int64(n)), b
	case 1:
		return Float(math.Float64frombits(n)), b
	}
	return String(string(raw[:c%9])), b
}

// probeColumns are the columns of the oracle's tables a and b: an INT key,
// and an INT, a FLOAT and a VARCHAR column.
var probeColumns = []string{"id", "i", "f", "s"}

// checkProbeOracle builds two databases holding the same rows, one with an
// index on every column of its tables a and b and one with none, and
// requires every statement that can probe an index to answer the same in
// both: `SELECT … WHERE col = ?` and `UPDATE … WHERE col = ?` for each column
// and probe value, and `a JOIN b ON b.col = a.col` for each pair of columns.
//
// The script gives a's and b's row counts (its first two bytes, up to 32
// each), then each row's i, f and s (oracleValue; the columns' types coerce
// them), then up to 32 probe values.
func checkProbeOracle(t *testing.T, script []byte) {
	t.Helper()
	indexed, plain := New().NewSession(), New().NewSession()
	defer indexed.Close()
	defer plain.Close()
	for _, tab := range []string{"a", "b"} {
		mustExec(t, plain, "CREATE TABLE "+tab+" (id INT, i INT, f FLOAT, s VARCHAR(8))")
		mustExec(t, indexed, "CREATE TABLE "+tab+" (id INT PRIMARY KEY, i INT, f FLOAT, s VARCHAR(8))")
		for _, col := range probeColumns[1:] {
			mustExec(t, indexed, fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", tab, col, tab, col))
		}
	}
	var counts [2]int
	for i := range counts {
		if len(script) > 0 {
			counts[i], script = int(script[0])%33, script[1:]
		}
	}
	for ti, tab := range []string{"a", "b"} {
		for id := 1; id <= counts[ti]; id++ {
			row := []Value{Int(int64(id)), Null(), Null(), Null()}
			for c := 1; c < len(row); c++ {
				row[c], script = oracleValue(script)
			}
			for _, s := range []*Session{indexed, plain} {
				mustExec(t, s, "INSERT INTO "+tab+" VALUES (?, ?, ?, ?)", row...)
			}
		}
	}
	same := func(q string, args ...Value) {
		t.Helper()
		want, werr := plain.Exec(q, args...)
		got, gerr := indexed.Exec(q, args...)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s %v: error %v by index, %v by scan", q, args, gerr, werr)
		}
		if werr != nil {
			return
		}
		if g, w := fmt.Sprint(got.RowsAffected, got.Rows), fmt.Sprint(want.RowsAffected, want.Rows); g != w {
			t.Fatalf("%s %v: %s by index, %s by scan", q, args, g, w)
		}
	}
	for n := 0; n < 32 && len(script) > 0; n++ {
		var p Value
		p, script = oracleValue(script)
		for _, col := range probeColumns {
			same("SELECT id FROM a WHERE "+col+" = ?", p)
			same("UPDATE a SET i = i WHERE "+col+" = ?", p)
		}
	}
	for _, outer := range probeColumns {
		for _, inner := range probeColumns {
			same(fmt.Sprintf("SELECT a.id, b.id FROM a JOIN b ON b.%s = a.%s", inner, outer))
		}
	}
}

// randomProbeScript draws a script of n probe values over up to 12 rows a
// table; most bytes pick from probeValues, so equal values meet often.
func randomProbeScript(rng *rand.Rand, n int) []byte {
	b := []byte{byte(rng.Intn(13)), byte(rng.Intn(13))}
	for i := 0; i < 3*24+n; i++ {
		b = append(b, byte(rng.Intn(256)))
	}
	return b
}

// everyValueScript stores every probe value in every column of a and b
// (b's rotated against a's) and probes with every one.
func everyValueScript() []byte {
	n := len(probeValues)
	b := []byte{byte(n), byte(n)}
	for _, shift := range []int{0, 5} {
		for k := 0; k < n; k++ {
			v := byte((k + shift) % n)
			b = append(b, v, v, v)
		}
	}
	for k := 0; k < n; k++ {
		b = append(b, byte(k))
	}
	return b
}

// TestIndexProbeMatchesScan: an index probe returns exactly the rows Equal
// would, whatever the plan — for every kind of value, on INT, FLOAT and
// VARCHAR columns, at the top level and per outer row of a join.
func TestIndexProbeMatchesScan(t *testing.T) {
	// The two answers that once depended on the plan, pinned absolutely.
	db := New()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE a (id INT PRIMARY KEY, x INT)")
	mustExec(t, s, "CREATE TABLE b (id INT PRIMARY KEY, y INT)")
	mustExec(t, s, "CREATE INDEX b_y ON b (y)")
	mustExec(t, s, "INSERT INTO a VALUES (1, NULL)")
	mustExec(t, s, "INSERT INTO b VALUES (1, NULL)")
	if res := mustExec(t, s, "SELECT a.id, b.id FROM a JOIN b ON b.y = a.x"); len(res.Rows) != 0 {
		t.Errorf("NULL = NULL joined by index: %v", res.Rows)
	}
	if res := mustExec(t, s, "SELECT id FROM a WHERE id = ?", String("1")); len(res.Rows) != 1 {
		t.Errorf(`WHERE id = "1" on the INT primary key: %v, want row 1`, res.Rows)
	}

	checkProbeOracle(t, everyValueScript())
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 150; i++ {
		checkProbeOracle(t, randomProbeScript(rng, 12))
	}
}

// FuzzIndexProbe drives the same oracle from fuzzed scripts.
func FuzzIndexProbe(f *testing.F) {
	f.Add(everyValueScript())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(randomProbeScript(rng, 8))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		checkProbeOracle(t, script)
	})
}

// TestIndexWordCollision plants what a hash collision would leave in a
// string index — a row posted under another string's word — and requires
// that neither a probe nor a UNIQUE check takes it for that string.
func TestIndexWordCollision(t *testing.T) {
	db := New()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(8))")
	mustExec(t, s, "CREATE UNIQUE INDEX t_s ON t (s)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a')")
	tab, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := tab.rows.get(1)
	tab.postings[tab.indexes["t_s"].slot].set(ixEntry{String("b").word(), 1}, ref)

	if res := mustExec(t, s, "SELECT id FROM t WHERE s = 'b'"); len(res.Rows) != 0 {
		t.Fatalf("probe for 'b' returned %v, which holds 'a'", res.Rows)
	}
	mustExec(t, s, "INSERT INTO t VALUES (2, 'b')") // not a duplicate of row 1
	if _, err := s.Exec("INSERT INTO t VALUES (3, 'b')"); err == nil {
		t.Fatal("a second 'b' passed the UNIQUE check")
	}
	for q, want := range map[string]string{
		"SELECT id FROM t WHERE s = 'b'": "[[2]]",
		"SELECT id FROM t WHERE s = 'a'": "[[1]]",
	} {
		if got := fmt.Sprint(mustExec(t, s, q).Rows); got != want {
			t.Errorf("%s: %s, want %s", q, got, want)
		}
	}
}
