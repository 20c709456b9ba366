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
// that holds both table names, run on a 2×1 tier — in auto-commit and each
// in its own transaction — and on one engine holding every row; each
// statement's sorted rows and RowsAffected must agree. A pin the router
// takes through the wrong table loses the rows the other shard holds.

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
	return pinOutcome(p.c.Exec(q, args...)), pinOutcome(p.ref.Exec(q, args...))
}

// runTx is run with the tier's side in its own transaction, declaring
// writes as its write set (nothing for a read).
func (p *pinTier) runTx(q, writes string, args ...sqldb.Value) (got, want string) {
	var declared []string
	if writes != "" {
		declared = []string{writes}
	}
	var res *sqldb.Result
	err := p.c.WithTx(declared, func(tx *Session) error {
		var err error
		res, err = tx.Exec(q, args...)
		return err
	})
	return pinOutcome(res, err), pinOutcome(p.ref.Exec(q, args...))
}

func pinOutcome(res *sqldb.Result, err error) string {
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

// col is a column, qualified by a name the statement binds, or unqualified
// when it binds one table (a JOIN's tables share every column name, so an
// unqualified one is ambiguous). One draw in eight qualifies it by a table
// name whatever the statement binds to it: a table under an alias, which
// the engine does not reach by its own name, or the other table, unbound.
func (g *pinGen) col(bound []string) string {
	c := g.of(pinCols)
	switch {
	case g.pick(8) == 0:
		return g.of(pinTables) + "." + c
	case len(bound) == 1 && g.pick(2) == 0:
		return c
	}
	return g.of(bound) + "." + c
}

// where is zero to three conjuncts, at least min: `col = const` with the
// column on either side, and the LIKE and `col = col` distractors.
func (g *pinGen) where(bound []string, min int, args *[]sqldb.Value) string {
	n := g.pick(4)
	if n < min {
		n = min
	}
	conj := make([]string, n)
	for i := range conj {
		switch g.pick(4) {
		case 0:
			conj[i] = g.col(bound) + " LIKE '1%'"
		case 1:
			conj[i] = g.col(bound) + " = " + g.col(bound)
		case 2:
			k := g.konst(args)
			conj[i] = k + " = " + g.col(bound)
		default:
			c := g.col(bound)
			conj[i] = c + " = " + g.konst(args)
		}
	}
	if n == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conj, " AND ")
}

// entry is a FROM or JOIN entry's text and its bound name. One entry in
// four is aliased with the other table's name, shadowing it, as in
// TestShardPinShadowedAlias.
func (g *pinGen) entry(table string) (text, bound string) {
	if a := g.of(pinAliases); a != "" {
		return table + " " + a, a
	}
	return table, table
}

// selectStmt is a SELECT of one table or of both joined, in either order.
// A JOIN selects COUNT(*) or qualified columns: the dialect has no * over
// a JOIN.
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
	default:
		if len(refs) > 1 {
			list = g.of(refs) + ".id, " + g.of(refs) + ".customer_id"
		}
	}
	return "SELECT " + list + " FROM " + text + g.where(refs, 0, &args), args
}

// shadowed is the join of TestShardPinShadowedAlias: orders under another
// name, then notes under the name orders, filtered through that name.
// orders.customer_id is a column of notes and pins no shard; a router that
// bound the qualifier to the table named orders would read one shard.
func (g *pinGen) shadowed() (string, []sqldb.Value) {
	var args []sqldb.Value
	o := g.of([]string{"o", "notes"})
	list := g.of([]string{"COUNT(*)", o + ".id, orders.total"})
	on := "orders." + g.of(pinCols) + " = " + o + "." + g.of(pinCols)
	return "SELECT " + list + " FROM orders " + o + " JOIN notes orders ON " + on + " WHERE orders.customer_id = " + g.konst(&args), args
}

// stmt is a SELECT (one in 26 the shadowing join), UPDATE, INSERT or
// DELETE, and the table it writes ("" for a SELECT). Writes never change an
// id or a shard key, and INSERTs take fresh ids: the rows stay where they
// are routed and ids stay unique across shards.
func (g *pinGen) stmt() (q string, args []sqldb.Value, writes string) {
	table := g.of(pinTables)
	bound := []string{table}
	switch k := g.pick(26); {
	case k == 25:
		q, args = g.shadowed()
		return q, args, ""
	case k < 15:
		q, args = g.selectStmt()
		return q, args, ""
	case k < 20:
		set := "total + 1"
		if g.pick(2) == 0 {
			set = g.konst(&args)
		}
		q = "UPDATE " + table + " SET total = " + set + g.where(bound, 0, &args)
	case k < 23:
		g.nextID++
		key := g.konst(&args)
		q = fmt.Sprintf("INSERT INTO %s (id, customer_id, total) VALUES (%d, %s, %d)", table, g.nextID, key, g.pick(5))
	default:
		q = "DELETE FROM " + table + g.where(bound, 1, &args)
	}
	return q, args, table
}

// maxPinRefused bounds the share of generated statements the engine
// refuses: a refused statement tests no pin, only that both sides refuse.
const maxPinRefused = 0.15

// TestShardPinOracle runs seeded generated streams, writes included, on a
// 2×1 tier and on one engine, statement by statement, then compares the
// final tables. Each stream runs twice, on fresh sides: in auto-commit, and
// with each statement in its own transaction declaring the table it writes.
func TestShardPinOracle(t *testing.T) {
	for _, inTx := range []bool{false, true} {
		name := map[bool]string{false: "autocommit", true: "txn"}[inTx]
		t.Run(name, func(t *testing.T) {
			refused, total := 0, 0
			for seed := int64(1); seed <= 8; seed++ {
				p := newPinTier(t)
				p.populate(t)
				rng := rand.New(rand.NewSource(seed))
				g := &pinGen{pick: rng.Intn, nextID: 100}
				bad := 0
				for i := 0; i < 200; i++ {
					q, args, writes := g.stmt()
					var got, want string
					if inTx {
						got, want = p.runTx(q, writes, args...)
					} else {
						got, want = p.run(q, args...)
					}
					if total++; want == "error" {
						refused++
					}
					if got != want {
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
			frac := float64(refused) / float64(total)
			t.Logf("the engine refused %d of %d statements (%.1f%%)", refused, total, 100*frac)
			if frac > maxPinRefused {
				t.Errorf("the engine refused %.1f%% of the statements, above %.0f%%", 100*frac, 100*maxPinRefused)
			}
		})
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
// tier — in auto-commit and in its own transaction — and on one engine
// holding the same rows. The seeds are paths the seeded generator took to
// statements the engine accepts, and the paths to SELECT * FROM orders
// WHERE customer_id = '-1' and to the same with customer_id = ? bound to
// the string "-2": a string key pins the shard of the number the engine
// compares it as.
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
	for _, seed := range []struct {
		path []byte
		want string
	}{
		{[]byte{0, 0, 0, 2, 1, 3, 0, 1, 0, 0, 4, 0, 0}, "SELECT * FROM orders WHERE customer_id = '-1' []"},
		{[]byte{0, 0, 0, 2, 1, 3, 0, 1, 0, 1, 4, 0, 1}, `SELECT * FROM orders WHERE customer_id = ? ["-2"]`},
	} {
		q, args := pathGen(seed.path).selectStmt()
		if got := fmt.Sprint(q, " ", args); got != seed.want {
			f.Fatalf("seed path %v gives %s, want %s", seed.path, got, seed.want)
		}
		f.Add(seed.path)
	}
	f.Fuzz(func(t *testing.T, path []byte) {
		q, args := pathGen(path).selectStmt()
		if got, want := p.run(q, args...); got != want {
			t.Fatalf("%s %v\n 2x1: %s\n 1x1: %s", q, args, got, want)
		}
		if got, want := p.runTx(q, "", args...); got != want {
			t.Fatalf("in a transaction: %s %v\n 2x1: %s\n 1x1: %s", q, args, got, want)
		}
	})
}

// pathGen is a generator whose choices are the path's bytes, 0 once it
// runs out.
func pathGen(path []byte) *pinGen {
	return &pinGen{pick: func(n int) int {
		if len(path) == 0 {
			return 0
		}
		c := int(path[0]) % n
		path = path[1:]
		return c
	}}
}
