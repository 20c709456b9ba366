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
	if len(st.Columns) != 2 || st.From.Table != "items" {
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
	st := mustParse(t, `SELECT i.id, b.bid
		FROM items i JOIN bids b ON b.item_id = i.id
		WHERE i.category = ? AND b.bid = 10
		ORDER BY b.bid DESC LIMIT 20`).(*Select)
	if j := st.Join; j == nil || j.Table.Table != "bids" || j.Table.Alias != "b" ||
		j.L.Table != "b" || j.L.Column != "item_id" || j.R.Table != "i" || j.R.Column != "id" {
		t.Fatalf("join: %+v", st.Join)
	}
	if o := st.OrderBy; o == nil || !o.Desc || o.Col.Table != "b" || o.Col.Column != "bid" {
		t.Fatalf("order by: %+v", st.OrderBy)
	}
	if st.Limit != 20 {
		t.Fatalf("limit: %d", st.Limit)
	}
	if c := st.Columns[1]; c.Table != "b" || c.Column != "bid" {
		t.Fatalf("qualified column: %+v", c)
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

// deletedForms are statements that each use a form the dialect leaves out,
// with what Parse's error names it. FuzzParse seeds from them.
var deletedForms = []struct{ sql, names string }{
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
	{"SELECT id FROM bids WHERE bid = (SELECT MAX(bid) FROM bids)", "parenthesized expression"},
	{"SELECT COUNT(id) FROM bids", "COUNT(expr)"},
	{"SELECT COUNT(DISTINCT id) FROM bids", "COUNT(expr)"},
	{"SELECT item_id, COUNT(*) FROM bids", "GROUP BY"},
	{"SHOW WAL CHAIN 1", `found "CHAIN"`},
	{"SHOW WAL RECORDS SINCE 1 LIMIT 256", `found "RECORDS"`},
	// The expression grammar is the traffic's: =, LIKE, AND, + and -.
	{"SELECT id FROM items WHERE a = 1 OR b = 2", "OR"},
	{"SELECT id FROM items WHERE NOT a = 1", "NOT"},
	{"DELETE FROM items WHERE id IN (1, 2)", "operator IN"},
	{"SELECT id FROM items WHERE id NOT IN (1, 2)", "operator NOT"},
	{"SELECT id FROM items WHERE id BETWEEN 1 AND 2", "operator BETWEEN"},
	{"SELECT id FROM items WHERE name IS NULL", "IS [NOT] NULL"},
	{"SELECT id FROM items WHERE name IS NOT NULL", "IS [NOT] NULL"},
	{"SELECT id FROM items WHERE id <> 1", "operator <>"},
	{"SELECT id FROM items WHERE id != 1", "operator !="},
	{"SELECT id FROM items WHERE id < ?", "operator <"},
	{"SELECT id FROM items WHERE id <= ?", "operator <="},
	{"UPDATE items SET qty = 1 WHERE id > ?", "operator >"},
	{"SELECT id FROM items WHERE id >= ?", "operator >="},
	{"UPDATE items SET qty = qty * 2", "operator *"},
	{"UPDATE items SET qty = qty / 2", "operator /"},
	{"SELECT id FROM items WHERE (id = 1)", "parenthesized expression"},
	{"UPDATE items SET qty = 2 - (qty + 1)", "parenthesized expression"},
	{"SELECT id FROM items WHERE flag = TRUE", "TRUE"},
	{"INSERT INTO items (flag) VALUES (FALSE)", "FALSE"},
	// The select list is *, one COUNT(*) or column references.
	{"SELECT id AS n FROM items", "select-item alias"},
	{"SELECT id n FROM items", "select-item alias"},
	{"SELECT COUNT(*) AS n FROM items", "select-item alias"},
	{"SELECT COUNT(*), COUNT(*) FROM items", "more than one COUNT(*)"},
	{"SELECT qty + 1 FROM items", "select item other than a column"},
	{"SELECT 1 FROM items", "select item other than a column"},
	{"SELECT id FROM items ORDER BY 1", "ORDER BY key other than a column"},
	{"SELECT id FROM items ORDER BY qty + 1", "ORDER BY key other than a column"},
	{"SELECT id FROM items ORDER BY id ASC", "ASC"},
	{"SELECT i.id FROM items i INNER JOIN bids b ON b.item_id = i.id", "INNER JOIN"},
	// DDL extras.
	{"DROP TABLE items", "DROP TABLE"},
	{"DROP TABLE IF EXISTS items", "DROP TABLE"},
	{"CREATE TABLE IF NOT EXISTS t (id INT)", "IF NOT EXISTS"},
	{"CREATE TABLE t (id INT, name VARCHAR(10) DEFAULT 'x')", "column DEFAULT"},
	{"CREATE TABLE t (id INTEGER)", "column type INTEGER"},
	{"CREATE TABLE t (id BIGINT)", "column type BIGINT"},
	{"CREATE TABLE t (x DOUBLE)", "column type DOUBLE"},
	{"CREATE TABLE t (at DATETIME)", "column type DATETIME"},
	{"CREATE TABLE t (c CHAR(2))", "column type CHAR"},
	{"SHOW TABLES", "SHOW TABLES"},
	// One shape per statement: at most one JOIN, on a column equality; one
	// ORDER BY key; INSERT names its columns; no AS before a table alias;
	// no PRIMARY KEY table constraint; values that are neither integers
	// nor strings are '?' arguments; BEGIN, COMMIT and ROLLBACK bare.
	{"SELECT i.id FROM items i JOIN bids b ON b.item_id = i.id JOIN users u ON u.id = b.user_id", "more than one JOIN"},
	{"SELECT COUNT(*) FROM a JOIN b ON b.x = a.x JOIN c ON c.y = b.y", "more than one JOIN"},
	{"SELECT i.id FROM items i JOIN bids b ON b.item_id = i.id AND b.qty = 1", "JOIN ON other than column = column"},
	{"SELECT i.id FROM items i JOIN bids b ON b.item_id = 7", "JOIN ON other than column = column"},
	{"SELECT i.id FROM items i JOIN bids b ON b.item_id = i.id + 1", "JOIN ON other than column = column"},
	{"SELECT i.id FROM items i JOIN bids b ON i.name LIKE b.name", "JOIN ON other than column = column"},
	{"SELECT * FROM items i JOIN bids b ON b.item_id = i.id", "SELECT * over a JOIN"},
	{"SELECT id FROM items ORDER BY qty, id", "more than one ORDER BY key"},
	{"SELECT id FROM items ORDER BY qty DESC, id DESC LIMIT 5", "more than one ORDER BY key"},
	{"INSERT INTO items VALUES (1, 'a')", "INSERT without a column list"},
	{"INSERT INTO items VALUES (?, ?), (?, ?)", "INSERT without a column list"},
	{"SELECT i.id FROM items AS i", "AS table alias"},
	{"SELECT i.id FROM items i JOIN bids AS b ON b.item_id = i.id", "AS table alias"},
	{"CREATE TABLE t (a INT, b INT, PRIMARY KEY (b))", "PRIMARY KEY (col) table constraint"},
	{"CREATE TABLE t (a INT, b VARCHAR(10), PRIMARY KEY (a))", "PRIMARY KEY (col) table constraint"},
	{"INSERT INTO items (id, name) VALUES (1, NULL)", "NULL literal"},
	{"UPDATE items SET name = NULL WHERE id = 1", "NULL literal"},
	{"SELECT id FROM items WHERE name = NULL", "NULL literal"},
	{"INSERT INTO items (id, price) VALUES (1, 2.5)", "float literal"},
	{"UPDATE items SET price = price + .5", "float literal"},
	{"SELECT id FROM items WHERE price = -2.5", "float literal"},
	{"BEGIN WORK", "WORK"},
	{"begin work;", "WORK"},
	{"COMMIT WORK", "WORK"},
	{"ROLLBACK WORK", "WORK"},
	{"START TRANSACTION", "START TRANSACTION"},
	{"start transaction;", "START TRANSACTION"},
}

// TestDeletedClauses: every SQL feature the dialect leaves out is a parse
// error that names it, and FuzzParse's oracle knows it.
func TestDeletedClauses(t *testing.T) {
	for _, c := range deletedForms {
		_, err := Parse(c.sql)
		// The name must be in the message itself, not in the quoted text.
		if err == nil || !strings.Contains(strings.Split(err.Error(), " (at byte")[0], c.names) {
			t.Errorf("Parse(%q) = %v, want an error naming %s", c.sql, err, c.names)
		}
		if toks, err := lex(c.sql); err != nil || deletedClause(toks) == "" {
			t.Errorf("FuzzParse's oracle does not flag %q", c.sql)
		}
	}
	// OFFSET stays a keyword of ALTER TABLE ... AUTO_INCREMENT.
	mustParse(t, "ALTER TABLE bids AUTO_INCREMENT OFFSET 2 STRIDE 2")
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO users (id, name, balance) VALUES (1, 'bob', ?), (2, 'eve', 0)").(*Insert)
	if st.Table != "users" || len(st.Columns) != 3 || len(st.Rows) != 2 {
		t.Fatalf("insert: %+v", st)
	}
	if v, ok := st.Rows[0][1].(*StringLit); !ok || v.V != "bob" {
		t.Fatalf("row value: %#v", st.Rows[0][1])
	}
}

// TestParseInsertNoColumns: an INSERT names its columns; the values of a
// row bind to them by position, '?' by '?'.
func TestParseInsertNoColumns(t *testing.T) {
	if _, err := Parse("INSERT INTO t VALUES (?, ?, ?)"); err == nil || !strings.Contains(err.Error(), "INSERT without a column list") {
		t.Fatalf("column-less INSERT: %v, want an error naming the form", err)
	}
	st := mustParse(t, "INSERT INTO t (a, b, c) VALUES (?, ?, ?)").(*Insert)
	if len(st.Columns) != 3 || len(st.Rows[0]) != 3 {
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
		descr TEXT
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

// TestParseCreateTableConstraint: the primary key is a column constraint;
// the PRIMARY KEY (col) table constraint is not in the dialect.
func TestParseCreateTableConstraint(t *testing.T) {
	st := mustParse(t, "CREATE TABLE t (a INT, b INT PRIMARY KEY)").(*CreateTable)
	if st.Columns[0].PrimaryKey || !st.Columns[1].PrimaryKey {
		t.Fatalf("constraint: %+v", st.Columns)
	}
	if _, err := Parse("CREATE TABLE t (a INT, b INT, PRIMARY KEY (b))"); err == nil || !strings.Contains(err.Error(), "PRIMARY KEY (col) table constraint") {
		t.Fatalf("table constraint: %v, want an error naming it", err)
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

// TestParseExprPrecedence: AND binds loosest, then = and LIKE, then + and
// -: a = 1 + 2 AND b LIKE c parses as (a = (1 + 2)) AND (b LIKE c).
func TestParseExprPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE a = 1 + 2 AND b LIKE c").(*Select)
	if got := exprString(st.Where); got != "((a=(v+v))AND(bLIKEc))" {
		t.Fatalf("where parsed as %s", got)
	}
}

// TestParseArithmeticPrecedence: + and - associate left, and unary minus
// binds tighter than either.
func TestParseArithmeticPrecedence(t *testing.T) {
	st := mustParse(t, "UPDATE t SET a = a - b + -c WHERE id = ?").(*Update)
	if got := exprString(st.Set[0].Value); got != "((a-b)+-c)" {
		t.Fatalf("a - b + -c parsed as %s", got)
	}
}

// TestParseInBetweenLikeIsNull: of the four predicates, only LIKE is in the
// dialect; IN, BETWEEN and IS [NOT] NULL fail naming themselves.
func TestParseInBetweenLikeIsNull(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE name LIKE '%go%' AND b = 2").(*Select)
	if got := exprString(st.Where); got != "((nameLIKEv)AND(b=v))" {
		t.Fatalf("where parsed as %s", got)
	}
	for _, c := range []struct{ where, names string }{
		{"a IN (1,2,3)", "IN"},
		{"b BETWEEN 2 AND 9", "BETWEEN"},
		{"c IS NOT NULL", "IS [NOT] NULL"},
		{"d NOT IN (4)", "NOT"},
	} {
		if _, err := Parse("SELECT a FROM t WHERE " + c.where); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("WHERE %s: %v, want an error naming %s", c.where, err, c.names)
		}
	}
}

// exprString renders enough structure for assertions.
func exprString(e Expr) string {
	switch x := e.(type) {
	case *BinaryExpr:
		return "(" + exprString(x.L) + x.Op.String() + exprString(x.R) + ")"
	case *ColRefExpr:
		return x.Column
	case *IntLit, *StringLit, *ParamExpr:
		return "v"
	case *NegExpr:
		return "-" + exprString(x.E)
	default:
		return "?"
	}
}

// TestParseAggregates: COUNT(*) is the one aggregate, and only as the whole
// select list.
func TestParseAggregates(t *testing.T) {
	for _, q := range []string{"SELECT COUNT(*) FROM bids WHERE item_id = ?", "select count(*) from bids"} {
		if st := mustParse(t, q).(*Select); !st.Count || st.Star || len(st.Columns) != 0 {
			t.Fatalf("%s: %+v", q, st)
		}
	}
	if mustParse(t, "SELECT id FROM bids").(*Select).Count {
		t.Fatal("a projection is not a COUNT(*) select")
	}
	for _, sql := range []string{
		"SELECT id FROM bids WHERE COUNT(*) = 1",
		"SELECT COUNT(*) + 1 FROM bids",
		"SELECT id FROM bids ORDER BY COUNT(*)",
		"SELECT COUNT(*), COUNT(*) FROM bids",
		"SELECT id, COUNT(*) FROM bids",
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
	st := mustParse(t, "SELECT a FROM t WHERE a = -5 AND b = -?").(*Select)
	if got := exprString(st.Where); got != "((a=-v)AND(b=-v))" {
		t.Fatalf("where parsed as %s", got)
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
	for _, q := range []string{"BEGIN", "begin;"} {
		if _, ok := mustParse(t, q).(*Begin); !ok {
			t.Errorf("%q did not parse as Begin", q)
		}
	}
	if _, ok := mustParse(t, "COMMIT;").(*Commit); !ok {
		t.Error("COMMIT did not parse as Commit")
	}
	if _, ok := mustParse(t, "rollback").(*Rollback); !ok {
		t.Error("rollback did not parse as Rollback")
	}
	for _, q := range []string{"START", "begin work", "START TRANSACTION", "COMMIT WORK"} {
		if _, err := Parse(q); err == nil {
			t.Errorf("%q must not parse", q)
		}
	}
	// The new keywords must not break identifiers that contain them.
	st := mustParse(t, "SELECT start_date FROM items").(*Select)
	if cr := st.Columns[0]; cr.Column != "start_date" {
		t.Errorf("start_date mislexed: %+v", cr)
	}
}
