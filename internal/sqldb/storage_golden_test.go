package sqldb

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// storageGolden holds one 32-bit digest per step of TestStorageGoldenStream,
// eight hex digits each, recorded by running this same test at the commit
// before the copy-on-write tree replaced the row map, rowOrder and the hash
// indexes (PR 19, 1282f2b). The storage may change again; what a statement
// stream observes through SQL may not.
const storageGolden = "" +
	"59429956f7500da098e4a230169e86dd2b35830e5766af1ab9b9dd8392be51be311d9e2de70c8eec2e28f5d1b1d9ba64" +
	"181c8cf1917eace5d36f5c02b6acee315bcbdad6b222477b14d65cfcb539e70063a50ad16bb9cae8ca8897ef1286eddc" +
	"fae0dc21f0d19eb39f660d787e139982ba123e7972a943e8092eb74975825094e137a9056e074213683f93cca006e0d5" +
	"0bcfee18c4a196d5c06e9c3c3fc781632d01aefe60813170c2d6b9d99898668866e2432f02d03c92c64e20f82197c8fb" +
	"7f6c0ffead5282f93b0924b70e746c22d489211a6cdd5bbf39ee2e5de78bbc3f634f031df0d9c9dfe6d8034c89c9c3ee" +
	"c3a3678257e091db9c8b3b8f4ed79aae1635bf7efbcfc67652c892e224cd5476ae1b3eeb0db9b0968f43441e223cf307" +
	"56aaaf1c34c0f71fd4af2fc9bedcadc24beb5cb30dc2d404093b4055757a5a241f877e1a41fa2f5e782a29a0b2263e5c" +
	"27c81adc1a2e779e583f3c664ed76e9cde142cf7f3dd1eceb8c907879e068cc26d83627298cb2145fc21d44df3b2bdee" +
	"25ad36da5a60c1b73198df414f6c6eca60ed198da966c431535316288a41db44bf44d61337cc7784d0f4be8054002b84" +
	"9025f6393c8cdb83867fcf1345cae6f9f1772147008676769dc7363b6d39fb4e62cf711c1773d375c3ee925b08965ebb" +
	"2c6397c448ad6271839beeae8f394553407baab631a3d556e2a59a11bdb67d441a4a43e2561d926a06d8a1d8216c4ab5" +
	"bede2f87243adfb00d683ec52a5d7ec56228d9be1e59c3f21d92a8032b744717f06e77b351ee314390b235cf0126ea1d" +
	"aded91ebfff4b493dde26f7dc248f1b5304f375007d802fe3059923a28925f58c702447aba6f9cf20a82131edb769935" +
	"ac9ed2e2d8f3067482b62eb042173fa0522c29ffcddb8dcf001ed8da6d4bf4772a838ad0299a5c2ddb360bf018c17f24" +
	"03dea9137ecad5e65f7a439bc71d66e5c35ce4db3e898ee01e0863d9e1109ba94e4b0bf4f5b16bf43c304d5e8a1fcd1c" +
	"64f4721bafcf1b505f4f2084390910e475180db18c42aa969e383823b4e1e63d4659ac9cf9d99820e0c3629484ecd04e" +
	"472a65aba758e30f80285618f6e2414e3dcc66fd3c3daefd9910b040e015d9e37a10f4d61e5bd2af90f9b99c47a58193" +
	"0604b8f27aa860aa04dedd3b9e39a8bab61ad27e932b8161c5609b1dcfb7893cdebe9e40af79a500edb724f6c07c5528" +
	"46dc40364ddecbb9bdca34adcf3d105b63ca0ad0e5bff3741398ec3c19a126f2b64a42d9e955b6d45bb3b24bf0055c9a" +
	"0273b3300f5a0b0886a2b5c7a67b159d7d8815621fbd013cfbdeab400cd6d83d3d58ea5f59411360d825bcca01143b10"

// goldenStream drives a seeded statement stream over two tables — a primary
// key, a unique and a non-unique secondary index, strided AUTO_INCREMENT —
// and after every step digests everything SQL can observe of them.
type goldenStream struct {
	t     *testing.T
	a, b  *Session // a runs the stream; b only ever holds a lock against it
	rng   *rand.Rand
	nextU int // next never-used value for the unique column
}

func (g *goldenStream) inTxn() bool { return g.a.InTxn() }

// exec runs one statement of the stream and returns its outcome as text:
// counters on success, the error otherwise — both are part of the record.
func (g *goldenStream) exec(s *Session, q string, args ...Value) string {
	res, err := s.Exec(q, args...)
	if err != nil {
		return fmt.Sprintf("%s %v -> error: %v\n", q, args, err)
	}
	return fmt.Sprintf("%s %v -> affected=%d last=%d\n", q, args, res.RowsAffected, res.LastInsertID)
}

// observe renders every table in scan order, an indexed point query for
// every live key of every indexed column, and — outside a transaction, where
// the parent engine could serve it without meeting its own write lock —
// SHOW TABLE STATUS.
func (g *goldenStream) observe() string {
	var b strings.Builder
	query := func(q string, args ...Value) *Result {
		res, err := g.a.Exec(q, args...)
		if err != nil {
			g.t.Fatalf("observe %s %v: %v", q, args, err)
		}
		fmt.Fprintf(&b, "%s %v = %v\n", q, args, res.Rows)
		return res
	}
	probe := func(table string, col int, name string, rows []Row) {
		seen := map[string]bool{}
		for _, r := range rows {
			if k := r[col].String(); !seen[k] {
				seen[k] = true
				query("SELECT * FROM "+table+" WHERE "+name+" = ?", r[col])
			}
		}
	}
	g1 := query("SELECT * FROM g1").Rows
	probe("g1", 0, "id", g1)
	probe("g1", 1, "u", g1)
	probe("g1", 2, "k", g1)
	g2 := query("SELECT * FROM g2").Rows
	probe("g2", 0, "id", g2)
	probe("g2", 1, "g1id", g2)
	query("SELECT g2.note, g1.u FROM g2 JOIN g1 ON g2.g1id = g1.id WHERE g1.k = ?", Int(int64(g.rng.Intn(5))))
	if !g.inTxn() {
		query("SHOW TABLE STATUS")
	}
	return b.String()
}

func (g *goldenStream) freshU() Value {
	g.nextU++
	return String(fmt.Sprintf("u%03d", g.nextU))
}

// someU returns a unique-column value that was handed out before — live or
// not, so a statement using it may or may not collide.
func (g *goldenStream) someU() Value {
	return String(fmt.Sprintf("u%03d", 1+g.rng.Intn(g.nextU)))
}

func (g *goldenStream) k() Value  { return Int(int64(g.rng.Intn(5))) }
func (g *goldenStream) id() Value { return Int(int64(1 + g.rng.Intn(3*g.nextU+3))) }

// step runs one randomly chosen operation and returns its record.
func (g *goldenStream) step(n int) string {
	r := g.rng
	switch op := r.Intn(20); {
	case n == 40:
		return g.exec(g.a, "CREATE INDEX g2_g1 ON g2 (g1id)") // implicit commit when a txn is open
	case n == 90:
		// A unique index over a column that already holds duplicates must
		// fail and leave the table as it was. Which duplicate the error
		// names depended on map order at the parent; only the outcome is
		// recorded.
		_, err := g.a.Exec("CREATE UNIQUE INDEX g1_k ON g1 (k)")
		return fmt.Sprintln("CREATE UNIQUE INDEX g1_k failed:", err != nil)
	case op < 4:
		return g.exec(g.a, "INSERT INTO g1 (u, k, v) VALUES (?, ?, ?)", g.freshU(), g.k(), Int(int64(n)))
	case op < 6:
		// Three rows; every other time the third collides on the unique
		// column: auto-commit keeps rows one and two (and the counters they
		// drew), a transaction undoes the statement to its start.
		third := g.freshU()
		if r.Intn(2) == 0 {
			third = g.someU()
		}
		return g.exec(g.a, "INSERT INTO g1 (u, k, v) VALUES (?, ?, 1), (?, ?, 2), (?, ?, 3)",
			g.freshU(), g.k(), g.freshU(), g.k(), third, g.k())
	case op < 7:
		return g.exec(g.a, "INSERT INTO g1 (id, u, k, v) VALUES (?, ?, ?, 0)", g.id(), g.freshU(), g.k())
	case op < 9:
		return g.exec(g.a, "INSERT INTO g2 (g1id, note) VALUES (?, ?), (?, ?)",
			g.id(), String(fmt.Sprint("n", n)), g.id(), String(fmt.Sprint("m", n)))
	case op < 11:
		return g.exec(g.a, "UPDATE g1 SET k = ? WHERE k = ?", g.k(), g.k()) // indexed column, many rows
	case op < 12:
		// Every row of one k gets the same unique value: the second row
		// fails, the first stays updated under auto-commit.
		return g.exec(g.a, "UPDATE g1 SET u = ? WHERE k = ?", g.freshU(), g.k())
	case op < 13:
		return g.exec(g.a, "UPDATE g1 SET u = ?, v = v + 1 WHERE id = ?", g.someU(), g.id())
	case op < 14:
		return g.exec(g.a, "UPDATE g1 SET v = v + 10 WHERE k = ?", g.k()) // unindexed column
	case op < 15:
		return g.exec(g.a, "UPDATE g2 SET g1id = ? WHERE g1id = ?", g.id(), g.id())
	case op < 16:
		return g.exec(g.a, "DELETE FROM g1 WHERE id = ?", g.id())
	case op < 17:
		if r.Intn(2) == 0 {
			return g.exec(g.a, "DELETE FROM g1 WHERE k = ?", g.k())
		}
		return g.exec(g.a, "DELETE FROM g2 WHERE g1id = ?", g.id())
	case op < 18:
		if g.inTxn() {
			if r.Intn(2) == 0 {
				return g.exec(g.a, "ROLLBACK")
			}
			return g.exec(g.a, "COMMIT")
		}
		return g.exec(g.a, "BEGIN")
	case op < 19:
		if g.inTxn() {
			return g.exec(g.a, "ROLLBACK")
		}
		return g.exec(g.a, "BEGIN")
	default:
		// Lock-timeout abort: b holds g2, a — inside a transaction that has
		// already written g1 — waits for it, times out and is rolled back
		// whole. b ends before anything reads.
		var rec string
		if g.inTxn() {
			rec = g.exec(g.a, "COMMIT") // it may hold g2 itself
		}
		rec += g.exec(g.b, "BEGIN") + g.exec(g.b, "UPDATE g2 SET note = 'held' WHERE id = ?", g.id())
		rec += g.exec(g.a, "BEGIN")
		rec += g.exec(g.a, "INSERT INTO g1 (u, k, v) VALUES (?, ?, -1)", g.freshU(), g.k())
		rec += g.exec(g.a, "DELETE FROM g2 WHERE id = ?", g.id())
		if g.inTxn() {
			g.t.Fatal("the lock wait did not abort the transaction")
		}
		if r.Intn(2) == 0 {
			return rec + g.exec(g.b, "COMMIT")
		}
		return rec + g.exec(g.b, "ROLLBACK")
	}
}

// TestStorageGoldenStream: the storage layer is observationally the one it
// replaced. Row order, index lookups, partial application of a failed
// auto-commit statement, statement atomicity inside a transaction, rowid and
// AUTO_INCREMENT reuse after ROLLBACK and after a lock-timeout abort, and
// CREATE INDEX mid-stream all digest to what the parent commit produced.
func TestStorageGoldenStream(t *testing.T) {
	db := New()
	db.SetLockWaitTimeout(20 * time.Millisecond)
	g := &goldenStream{t: t, a: db.NewSession(), b: db.NewSession(), rng: rand.New(rand.NewSource(20))}
	defer g.a.Close()
	defer g.b.Close()
	for _, q := range []string{
		"CREATE TABLE g1 (id INT PRIMARY KEY AUTO_INCREMENT, u VARCHAR(16) NOT NULL, k INT, v INT)",
		"CREATE UNIQUE INDEX g1_u ON g1 (u)",
		"CREATE INDEX g1_k_ix ON g1 (k)",
		"ALTER TABLE g1 AUTO_INCREMENT OFFSET 2 STRIDE 3",
		"CREATE TABLE g2 (id INT PRIMARY KEY AUTO_INCREMENT, g1id INT, note VARCHAR(16))",
	} {
		mustExec(t, g.a, q)
	}
	const steps = 240
	var got strings.Builder
	covered := map[string]int{}
	inRecord := []string{"duplicate key", "lock wait timeout", "ROLLBACK", "COMMIT", "(id, u, k, v)"}
	for n := 0; n < steps; n++ {
		op := g.step(n)
		for _, what := range inRecord {
			if strings.Contains(op, what) {
				covered[what]++
			}
		}
		if g.inTxn() {
			covered["observed inside a transaction"]++
			if strings.Contains(op, "duplicate key") {
				covered["statement undone inside a transaction"]++
			}
		}
		rec := op + g.observe()
		h := fnv.New32a()
		h.Write([]byte(rec))
		d := fmt.Sprintf("%08x", h.Sum32())
		got.WriteString(d)
		if want := storageGolden; len(want) >= 8*(n+1) && want[8*n:8*n+8] != d {
			t.Fatalf("step %d diverges from the recorded stream (digest %s, want %s):\n%s", n, d, want[8*n:8*n+8], rec)
		}
	}
	for _, what := range append(inRecord, "observed inside a transaction", "statement undone inside a transaction") {
		if covered[what] < 3 {
			t.Errorf("the stream exercised %q only %d times", what, covered[what])
		}
	}
	if got.String() != storageGolden {
		t.Fatalf("recorded stream has %d steps, this run %d; digests of this run:\n%s",
			len(storageGolden)/8, steps, got.String())
	}
}
