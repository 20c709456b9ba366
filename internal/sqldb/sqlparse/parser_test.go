package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseSelectBasic(t *testing.T) {
	st := mustParse(t, "SELECT id, name FROM items WHERE id = 7").(*Select)
	if len(st.Items) != 2 || st.From.Table != "items" {
		t.Fatalf("unexpected select: %+v", st)
	}
	be, ok := st.Where.(*BinaryExpr)
	if !ok || be.Op != OpEq {
		t.Fatalf("where = %#v, want equality", st.Where)
	}
}

func TestParseSelectStar(t *testing.T) {
	st := mustParse(t, "SELECT * FROM users").(*Select)
	if !st.Star || st.Limit != -1 {
		t.Fatalf("unexpected: %+v", st)
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParse(t, `SELECT i.id, b.bid AS n
		FROM items i JOIN bids b ON b.item_id = i.id
		WHERE i.category = ? AND b.bid > 10
		ORDER BY n DESC LIMIT 20`).(*Select)
	if len(st.Joins) != 1 || st.Joins[0].Table.Table != "bids" {
		t.Fatalf("joins: %+v", st.Joins)
	}
	if len(st.OrderBy) != 1 || !st.OrderBy[0].Desc {
		t.Fatalf("order by: %+v", st.OrderBy)
	}
	if st.Limit != 20 {
		t.Fatalf("limit: %d", st.Limit)
	}
	if st.Items[1].Alias != "n" {
		t.Fatalf("alias: %+v", st.Items[1])
	}
}

// TestParseMySQLLimitComma: MySQL's LIMIT offset, count is not in the
// dialect; LIMIT n alone is.
func TestParseMySQLLimitComma(t *testing.T) {
	if _, err := Parse("SELECT id FROM t LIMIT 10, 20"); err == nil || !strings.Contains(err.Error(), "LIMIT offset, count") {
		t.Fatalf("LIMIT 10, 20: %v, want an error naming the clause", err)
	}
	if st := mustParse(t, "SELECT id FROM t LIMIT 10").(*Select); st.Limit != 10 {
		t.Fatalf("LIMIT 10 -> limit=%d", st.Limit)
	}
}

// TestDeletedClauses: every SQL feature the dialect leaves out is a parse
// error that names it.
func TestDeletedClauses(t *testing.T) {
	for _, c := range []struct{ sql, names string }{
		{"SELECT item_id, COUNT(*) FROM bids GROUP BY item_id", "GROUP BY"},
		{"SELECT id FROM items GROUP BY id", "GROUP BY"},
		{"SELECT DISTINCT category FROM items", "DISTINCT"},
		{"SELECT id FROM items ORDER BY id LIMIT 3 OFFSET 4", "OFFSET"},
		{"SELECT id FROM items LIMIT 4, 3", "LIMIT offset, count"},
		{"SELECT SUM(bid) FROM bids", "SUM"},
		{"SELECT MIN(bid) FROM bids", "MIN"},
		{"SELECT MAX(id) FROM bids", "MAX"},
		{"SELECT AVG(bid) FROM bids", "AVG"},
		{"SELECT COUNT(*), MAX(id) FROM bids", "MAX"},
		{"SELECT id FROM bids WHERE bid > (SELECT MAX(bid) FROM bids)", "MAX"},
		{"SELECT COUNT(id) FROM bids", "COUNT(expr)"},
		{"SELECT COUNT(DISTINCT id) FROM bids", "COUNT(expr)"},
		{"SELECT item_id, COUNT(*) FROM bids", "GROUP BY"},
		{"SHOW WAL CHAIN 1", `found "CHAIN"`},
		{"SHOW WAL RECORDS SINCE 1 LIMIT 256", `found "RECORDS"`},
	} {
		_, err := Parse(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("Parse(%q) = %v, want an error naming %s", c.sql, err, c.names)
		}
	}
	// OFFSET stays a keyword of ALTER TABLE ... AUTO_INCREMENT.
	mustParse(t, "ALTER TABLE bids AUTO_INCREMENT OFFSET 2 STRIDE 2")
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO users (id, name, balance) VALUES (1, 'bob', 3.5), (2, 'eve', 0)").(*Insert)
	if st.Table != "users" || len(st.Columns) != 3 || len(st.Rows) != 2 {
		t.Fatalf("insert: %+v", st)
	}
	if v, ok := st.Rows[0][1].(*StringLit); !ok || v.V != "bob" {
		t.Fatalf("row value: %#v", st.Rows[0][1])
	}
}

func TestParseInsertNoColumns(t *testing.T) {
	st := mustParse(t, "INSERT INTO t VALUES (?, ?, NULL)").(*Insert)
	if len(st.Columns) != 0 || len(st.Rows[0]) != 3 {
		t.Fatalf("insert: %+v", st)
	}
	if p, ok := st.Rows[0][1].(*ParamExpr); !ok || p.Index != 1 {
		t.Fatalf("param indices must increment: %#v", st.Rows[0][1])
	}
}

func TestParseUpdate(t *testing.T) {
	st := mustParse(t, "UPDATE items SET stock = stock - 1, sales = sales + 1 WHERE id = ?").(*Update)
	if st.Table != "items" || len(st.Set) != 2 || st.Where == nil {
		t.Fatalf("update: %+v", st)
	}
}

func TestParseDelete(t *testing.T) {
	st := mustParse(t, "DELETE FROM carts WHERE session = 'x'").(*Delete)
	if st.Table != "carts" || st.Where == nil {
		t.Fatalf("delete: %+v", st)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE items (
		id INT PRIMARY KEY AUTO_INCREMENT,
		name VARCHAR(100) NOT NULL,
		price FLOAT,
		descr TEXT DEFAULT 'none'
	)`).(*CreateTable)
	if st.Name != "items" || len(st.Columns) != 4 {
		t.Fatalf("create: %+v", st)
	}
	id := st.Columns[0]
	if !id.PrimaryKey || !id.AutoIncrement || id.Type != TypeInt {
		t.Fatalf("id column: %+v", id)
	}
	if !st.Columns[1].NotNull || st.Columns[1].Type != TypeString {
		t.Fatalf("name column: %+v", st.Columns[1])
	}
}

func TestParseCreateTableConstraint(t *testing.T) {
	st := mustParse(t, "CREATE TABLE t (a INT, b INT, PRIMARY KEY (b))").(*CreateTable)
	if st.Columns[0].PrimaryKey || !st.Columns[1].PrimaryKey {
		t.Fatalf("constraint: %+v", st.Columns)
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, "CREATE UNIQUE INDEX idx_name ON users (nickname)").(*CreateIndex)
	if !st.Unique || st.Table != "users" || st.Column != "nickname" {
		t.Fatalf("index: %+v", st)
	}
}

// LOCK TABLES / UNLOCK TABLES are not in the dialect: they fail like any
// other unknown statement, and their former keywords are plain identifiers.
func TestParseLockTables(t *testing.T) {
	for _, sql := range []string{
		"LOCK TABLES items WRITE",
		"LOCK TABLES items WRITE, authors READ",
		"lock tables items read",
		"UNLOCK TABLES",
	} {
		_, err := Parse(sql)
		if err == nil || !strings.Contains(err.Error(), "unsupported statement") {
			t.Errorf("Parse(%q) = %v, want an unsupported-statement error", sql, err)
		}
	}
	mustParse(t, "SELECT read, write FROM lock WHERE unlock = 1")
}

func TestParseExprPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").(*Select)
	// Must parse as a=1 OR (b=2 AND c=3).
	or, ok := st.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top must be OR: %#v", st.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right must be AND: %#v", or.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT a + b * 2 FROM t").(*Select)
	add, ok := st.Items[0].Expr.(*BinaryExpr)
	if !ok || add.Op != OpAdd {
		t.Fatalf("top must be +: %#v", st.Items[0].Expr)
	}
	if mul, ok := add.R.(*BinaryExpr); !ok || mul.Op != OpMul {
		t.Fatalf("right must be *: %#v", add.R)
	}
}

func TestParseInBetweenLikeIsNull(t *testing.T) {
	st := mustParse(t, `SELECT a FROM t WHERE a IN (1,2,3) AND b BETWEEN 2 AND 9
		AND name LIKE '%go%' AND c IS NOT NULL AND d NOT IN (4)`).(*Select)
	if st.Where == nil {
		t.Fatal("where missing")
	}
	s := exprString(st.Where)
	for _, want := range []string{"IN", "BETWEEN", "LIKE", "ISNOTNULL", "NOTIN"} {
		if !strings.Contains(s, want) {
			t.Fatalf("parsed where %q missing %s", s, want)
		}
	}
}

// exprString renders enough structure for assertions.
func exprString(e Expr) string {
	switch x := e.(type) {
	case *BinaryExpr:
		return "(" + exprString(x.L) + x.Op.String() + exprString(x.R) + ")"
	case *InExpr:
		if x.Not {
			return exprString(x.E) + "NOTIN"
		}
		return exprString(x.E) + "IN"
	case *BetweenExpr:
		return exprString(x.E) + "BETWEEN"
	case *IsNullExpr:
		if x.Not {
			return exprString(x.E) + "ISNOTNULL"
		}
		return exprString(x.E) + "ISNULL"
	case *ColRefExpr:
		return x.Column
	case *IntLit, *FloatLit, *StringLit, *NullLit, *ParamExpr:
		return "v"
	case *NotExpr:
		return "NOT" + exprString(x.E)
	case *NegExpr:
		return "-" + exprString(x.E)
	case *AggExpr:
		return "COUNT(*)"
	default:
		return "?"
	}
}

// TestParseAggregates: COUNT(*) is the one aggregate, and only as a whole
// select item.
func TestParseAggregates(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*), count(*) AS n FROM bids WHERE item_id = ?").(*Select)
	if len(st.Items) != 2 || !st.IsCount() || st.Items[1].Alias != "n" {
		t.Fatalf("count(*): %+v", st.Items)
	}
	if _, ok := st.Items[1].Expr.(*AggExpr); !ok {
		t.Fatalf("second item: %#v", st.Items[1].Expr)
	}
	if mustParse(t, "SELECT id FROM bids").(*Select).IsCount() {
		t.Fatal("a projection is not a COUNT(*) select")
	}
	for _, sql := range []string{
		"SELECT id FROM bids WHERE COUNT(*) > 1",
		"SELECT COUNT(*) + 1 FROM bids",
		"SELECT id FROM bids ORDER BY COUNT(*)",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	st := mustParse(t, `SELECT a FROM t WHERE s = 'it''s' AND r = 'a\nb'`).(*Select)
	and := st.Where.(*BinaryExpr)
	l := and.L.(*BinaryExpr).R.(*StringLit)
	if l.V != "it's" {
		t.Fatalf("doubled quote: %q", l.V)
	}
	r := and.R.(*BinaryExpr).R.(*StringLit)
	if r.V != "a\nb" {
		t.Fatalf("backslash escape: %q", r.V)
	}
}

func TestParseComments(t *testing.T) {
	mustParse(t, "SELECT a FROM t -- trailing comment\nWHERE a = 1")
}

func TestParseNegativeNumbers(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE a > -5 AND b = -2.5").(*Select)
	if st.Where == nil {
		t.Fatal("where")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"INSERT INTO t",
		"UPDATE t",
		"SELECT a FROM t GROUP BY COUNT(*)",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT 'unterminated FROM t",
		"CREATE TABLE t (a BLOB)",
		"CREATE TABLE t (a INT, PRIMARY KEY (zzz))",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParseSemicolon(t *testing.T) {
	mustParse(t, "SELECT a FROM t;")
}

// Property: the lexer never panics and either tokenizes or errors cleanly on
// arbitrary input.
func TestLexerRobustness(t *testing.T) {
	f := func(s string) bool {
		toks, err := lex(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].kind == tokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse never panics on arbitrary input.
func TestParserRobustness(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		_, _ = Parse("SELECT " + s + " FROM t")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParamIndexing(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE x = ? AND y = ? AND z = ?").(*Select)
	var idx []int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *ParamExpr:
			idx = append(idx, x.Index)
		}
	}
	walk(st.Where)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 2 {
		t.Fatalf("param indices: %v", idx)
	}
}

func TestParseTxnControl(t *testing.T) {
	for _, q := range []string{"BEGIN", "begin work", "START TRANSACTION"} {
		if _, ok := mustParse(t, q).(*Begin); !ok {
			t.Errorf("%q did not parse as Begin", q)
		}
	}
	if _, ok := mustParse(t, "COMMIT WORK;").(*Commit); !ok {
		t.Error("COMMIT WORK did not parse as Commit")
	}
	if _, ok := mustParse(t, "rollback").(*Rollback); !ok {
		t.Error("rollback did not parse as Rollback")
	}
	if _, err := Parse("START"); err == nil {
		t.Error("bare START must not parse")
	}
	// The new keywords must not break identifiers that contain them.
	st := mustParse(t, "SELECT start_date FROM items").(*Select)
	if cr, ok := st.Items[0].Expr.(*ColRefExpr); !ok || cr.Column != "start_date" {
		t.Errorf("start_date mislexed: %+v", st.Items[0].Expr)
	}
}
