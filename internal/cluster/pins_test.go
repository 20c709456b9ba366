package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

// The pin oracle: shard-key extraction checked against brute-force
// evaluation. Generated statements over one sharded table (orders, by
// customer_id) and one global table (notes), with aliases drawn from a pool
// that holds both table names, run on a 2×1 tier and on one engine holding
// every row; each statement's sorted rows and RowsAffected must agree. A pin
// the router takes through the wrong table loses the rows the other shard
// holds.

// pinTier is a 2×1 sharded client beside the one engine it must equal.
type pinTier struct {
	c   *Client
	ref *sqldb.Session
}

// newPinTier creates the two tables on both sides, each with an index on
// customer_id so the engine's probe takes part, and no rows.
func newPinTier(t testing.TB) *pinTier {
	t.Helper()
	p := &pinTier{
		c:   NewWithConfig(Config{DSN: shardDSN(startShards(t, 2, 1)), PoolSize: 2, ShardBy: map[string]string{"orders": "customer_id"}}),
		ref: sqldb.New().NewSession(),
	}
	t.Cleanup(p.c.Close)
	t.Cleanup(p.ref.Close)
	for _, q := range []string{
		`CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total INT)`,
		`CREATE INDEX orders_customer ON orders (customer_id)`,
		`CREATE TABLE notes (id INT PRIMARY KEY, customer_id INT, total INT)`,
		`CREATE INDEX notes_customer ON notes (customer_id)`,
	} {
		mustExec(t, p.c, q)
		mustExec(t, p.ref, q)
	}
	return p
}

// run executes one statement on both sides and returns the two outcomes:
// "error", or the columns, the rows sorted and RowsAffected.
func (p *pinTier) run(q string, args ...sqldb.Value) (got, want string) {
	canon := func(res *sqldb.Result, err error) string {
		if err != nil {
			return "error"
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = fmt.Sprint(r)
		}
		sort.Strings(rows)
		return fmt.Sprintf("%v %v affected=%d", res.Columns, rows, res.RowsAffected)
	}
	got = canon(p.c.Exec(q, args...))
	want = canon(p.ref.Exec(q, args...))
	return got, want
}

// populate gives orders 16 rows over customers -2…4 (both shards, negated
// constants included) and notes 6.
func (p *pinTier) populate(t testing.TB) {
	t.Helper()
	for i := 1; i <= 16; i++ {
		q := fmt.Sprintf("INSERT INTO orders (id, customer_id, total) VALUES (%d, %d, %d)", i, []int{-2, -1, 1, 2, 3, 4}[i%6], i%5+1)
		mustExec(t, p.c, q)
		mustExec(t, p.ref, q)
	}
	for i := 1; i <= 6; i++ {
		q := fmt.Sprintf("INSERT INTO notes (id, customer_id, total) VALUES (%d, %d, %d)", i, i-3, i%3+1)
		mustExec(t, p.c, q)
		mustExec(t, p.ref, q)
	}
}

// pinGen draws statements from a choice source: pick(n) is a choice in
// [0, n). The test draws from a seeded rand, the fuzz target from its input
// bytes, so a fuzz input is a path through the same generator.
type pinGen struct {
	pick   func(n int) int
	nextID int
}

var (
	pinTables  = []string{"orders", "notes"}
	pinAliases = []string{"", "o", "orders", "notes"}
	pinCols    = []string{"customer_id", "customer_id", "id", "total"}
)

func (g *pinGen) of(s []string) string { return s[g.pick(len(s))] }

// konst is a constant: a literal, a '?' (its argument appended to args),
// the negation of either, or an integer as a string, quoted or as a string
// argument — the engine compares it with an INT column as a number.
func (g *pinGen) konst(args *[]sqldb.Value) string {
	k := int64(g.pick(4) + 1)
	switch g.pick(6) {
	case 0:
		return strconv.FormatInt(k, 10)
	case 1:
		*args = append(*args, sqldb.Int(k))
		return "?"
	case 2:
		return "-" + strconv.FormatInt(k%3, 10)
	case 3:
		*args = append(*args, sqldb.Int(k%3))
		return "-?"
	}
	if g.pick(2) == 0 {
		k = -(k % 3)
	}
	if g.pick(2) == 0 {
		return "'" + strconv.FormatInt(k, 10) + "'"
	}
	*args = append(*args, sqldb.String(strconv.FormatInt(k, 10)))
	return "?"
}

// col is a column, qualified by one of quals ("" leaves it unqualified).
func (g *pinGen) col(quals []string) string {
	c := g.of(pinCols)
	if q := g.of(quals); q != "" {
		return q + "." + c
	}
	return c
}

// where is zero to three conjuncts, at least min: `col = const` with the
// column on either side, and the LIKE and `col = col` distractors.
func (g *pinGen) where(quals []string, min int, args *[]sqldb.Value) string {
	n := g.pick(4)
	if n < min {
		n = min
	}
	conj := make([]string, n)
	for i := range conj {
		switch g.pick(4) {
		case 0:
			conj[i] = g.col(quals) + " LIKE '1%'"
		case 1:
			conj[i] = g.col(quals) + " = " + g.col(quals)
		case 2:
			k := g.konst(args)
			conj[i] = k + " = " + g.col(quals)
		default:
			c := g.col(quals)
			conj[i] = c + " = " + g.konst(args)
		}
	}
	if n == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conj, " AND ")
}

// entry is a FROM or JOIN entry's text and its bound name.
func (g *pinGen) entry(table string) (text, bound string) {
	if a := g.of(pinAliases); a != "" {
		return table + " " + a, a
	}
	return table, table
}

// selectStmt is a SELECT of one table or of both joined, in either order.
func (g *pinGen) selectStmt() (string, []sqldb.Value) {
	var args []sqldb.Value
	from := g.pick(2)
	text, bound := g.entry(pinTables[from])
	refs := []string{bound}
	if g.pick(3) > 0 {
		jt, jb := g.entry(pinTables[1-from])
		text += " JOIN " + jt + " ON " + jb + "." + g.of(pinCols) + " = " + bound + "." + g.of(pinCols)
		refs = append(refs, jb)
	}
	list := "*"
	switch g.pick(3) {
	case 0:
		list = "COUNT(*)"
	case 1:
		list = g.of(refs) + ".id, " + g.of(refs) + ".total"
	}
	quals := append([]string{"", "orders", "notes"}, refs...)
	return "SELECT " + list + " FROM " + text + g.where(quals, 0, &args), args
}

// stmt is a SELECT, UPDATE, INSERT or DELETE. Writes never change an id or
// a shard key, and INSERTs take fresh ids: the rows stay where they are
// routed and ids stay unique across shards.
func (g *pinGen) stmt() (string, []sqldb.Value) {
	var args []sqldb.Value
	table := g.of(pinTables)
	quals := []string{"", table, pinTables[0], pinTables[1]}
	switch k := g.pick(25); {
	case k < 15:
		return g.selectStmt()
	case k < 20:
		set := "total + 1"
		if g.pick(2) == 0 {
			set = g.konst(&args)
		}
		return "UPDATE " + table + " SET total = " + set + g.where(quals, 0, &args), args
	case k < 23:
		g.nextID++
		key := g.konst(&args)
		return fmt.Sprintf("INSERT INTO %s (id, customer_id, total) VALUES (%d, %s, %d)", table, g.nextID, key, g.pick(5)), args
	default:
		return "DELETE FROM " + table + g.where(quals, 1, &args), args
	}
}

// TestShardPinOracle runs seeded generated streams, writes included, on a
// 2×1 tier and on one engine, statement by statement, then compares the
// final tables.
func TestShardPinOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := newPinTier(t)
		p.populate(t)
		rng := rand.New(rand.NewSource(seed))
		g := &pinGen{pick: rng.Intn, nextID: 100}
		bad := 0
		for i := 0; i < 200; i++ {
			q, args := g.stmt()
			if got, want := p.run(q, args...); got != want {
				if bad++; bad <= 5 {
					t.Errorf("seed %d, statement %d: %s %v\n 2x1: %s\n 1x1: %s", seed, i, q, args, got, want)
				}
			}
		}
		for _, q := range []string{"SELECT * FROM orders", "SELECT * FROM notes"} {
			if got, want := p.run(q); got != want {
				t.Errorf("seed %d, final %s\n 2x1: %s\n 1x1: %s", seed, q, got, want)
			}
		}
		if bad > 5 {
			t.Errorf("seed %d: %d more differing statements", seed, bad-5)
		}
	}
}

// TestShardPinShadowedAlias: the alias orders binds the global table notes,
// so orders.customer_id pins nothing and the join's six rows come from both
// shards.
func TestShardPinShadowedAlias(t *testing.T) {
	p := newPinTier(t)
	mustExec(t, p.c, "INSERT INTO notes (id, customer_id, total) VALUES (1, 1, 0)")
	mustExec(t, p.ref, "INSERT INTO notes (id, customer_id, total) VALUES (1, 1, 0)")
	for cust := 1; cust <= 6; cust++ {
		q := fmt.Sprintf("INSERT INTO orders (id, customer_id, total) VALUES (%d, %d, 1)", cust, cust)
		mustExec(t, p.c, q)
		mustExec(t, p.ref, q)
	}
	const q = "SELECT o.id FROM orders o JOIN notes orders ON orders.id = o.total WHERE orders.customer_id = ?"
	for name, ex := range map[string]sqldb.Execer{"2x1": p.c, "1x1": p.ref} {
		res, err := ex.Exec(q, sqldb.Int(1))
		if err != nil || len(res.Rows) != 6 {
			t.Errorf("%s: %v rows, %v; want 6", name, res, err)
		}
	}
}

// TestShardPinNaNScatters: the engine compares a number with NaN as equal,
// so a NaN key matches every row and must pin no shard.
func TestShardPinNaNScatters(t *testing.T) {
	p := newPinTier(t)
	p.populate(t)
	for _, arg := range []sqldb.Value{sqldb.String("NaN"), sqldb.Float(math.NaN())} {
		if got, want := p.run("SELECT id FROM orders WHERE customer_id = ?", arg); got != want {
			t.Errorf("customer_id = %v\n 2x1: %s\n 1x1: %s", arg, got, want)
		}
	}
}

// FuzzShardPins: a fuzz input is a path through the oracle's SELECT
// generator, one byte per choice (0 once the input runs out), run on a 2×1
// tier and on one engine holding the same rows. The seeds are paths the
// seeded generator took to statements the engine accepts, and the paths to
// SELECT * FROM orders WHERE customer_id = '-1' and to the same with
// customer_id = ? bound to the string "-2": a string key pins the shard of
// the number the engine compares it as.
func FuzzShardPins(f *testing.F) {
	p := newPinTier(f)
	p.populate(f)
	rng := rand.New(rand.NewSource(1))
	for seeds := 0; seeds < 32; {
		var path []byte
		g := &pinGen{pick: func(n int) int {
			c := rng.Intn(n)
			path = append(path, byte(c))
			return c
		}}
		q, args := g.selectStmt()
		if _, err := p.ref.Exec(q, args...); err == nil {
			f.Add(path)
			seeds++
		}
	}
	f.Add([]byte{0, 0, 0, 2, 1, 3, 0, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 1, 3, 0, 0, 1, 4, 0, 1})
	f.Fuzz(func(t *testing.T, path []byte) {
		g := &pinGen{pick: func(n int) int {
			if len(path) == 0 {
				return 0
			}
			c := int(path[0]) % n
			path = path[1:]
			return c
		}}
		q, args := g.selectStmt()
		if got, want := p.run(q, args...); got != want {
			t.Fatalf("%s %v\n 2x1: %s\n 1x1: %s", q, args, got, want)
		}
	})
}
