package sqlparse

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// trafficTexts reads testdata/statements.sql: the applications' statement
// shapes, one a line.
func trafficTexts(t testing.TB) []string {
	f, err := os.Open("testdata/statements.sql")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "--") {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParseTraffic: every statement the applications send parses, so none
// of them uses a clause the dialect leaves out.
func TestParseTraffic(t *testing.T) {
	texts := trafficTexts(t)
	if len(texts) < 100 {
		t.Fatalf("only %d statements in testdata/statements.sql", len(texts))
	}
	for _, q := range texts {
		if _, err := Parse(q); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// deletedClause names the first form in toks that the dialect leaves out,
// or returns "".
func deletedClause(toks []token) string {
	is := func(i int, kind tokKind, texts ...string) bool {
		if i < 0 || i >= len(toks) || toks[i].kind != kind {
			return false
		}
		if len(texts) == 0 {
			return true
		}
		for _, text := range texts {
			if toks[i].text == text {
				return true
			}
		}
		return false
	}
	kw := func(i int, texts ...string) bool { return is(i, tokKeyword, texts...) }
	sym := func(i int, texts ...string) bool { return is(i, tokSymbol, texts...) }
	if kw(0, "SHOW") && is(1, tokIdent, "WAL", "wal") && !is(2, tokIdent, "STATUS", "status") {
		return "SHOW WAL " + toks[2].text
	}
	if kw(0, "INSERT") && !sym(3, "(") {
		return "INSERT without a column list"
	}
	inSelect := kw(0, "SELECT") // reading the select list
	inOrderBy := false
	counts, joins := 0, 0
	for i, t := range toks {
		if kw(i, "FROM", "LIMIT") {
			inSelect, inOrderBy = false, false
		}
		switch {
		case kw(i, "GROUP", "DISTINCT", "SUM", "MIN", "MAX", "AVG", "OR", "IN", "BETWEEN", "IS",
			"TRUE", "FALSE", "ASC", "INNER", "DROP", "IF", "EXISTS", "DEFAULT",
			"INTEGER", "BIGINT", "DOUBLE", "DATETIME", "CHAR", "TABLES", "AS", "WORK", "START"):
			return t.text
		case kw(i, "NULL") && !kw(i-1, "NOT"):
			return "NULL literal"
		case t.kind == tokNumber && strings.Contains(t.text, "."):
			return "float literal"
		case kw(i, "PRIMARY") && sym(i-1, "(", ","):
			return "PRIMARY KEY (col) table constraint"
		case kw(0, "SELECT") && kw(i, "JOIN"):
			if joins++; joins > 1 {
				return "more than one JOIN"
			}
			if sym(1, "*") {
				return "SELECT * over a JOIN"
			}
		case kw(0, "SELECT") && kw(i, "ON") && !joinOnColumns(toks[i+1:]):
			return "JOIN ON other than column = column"
		case inOrderBy && sym(i, ","):
			return "more than one ORDER BY key"
		case sym(i, "<>", "!=", "<", "<=", ">", ">=", "/", "%"):
			return "operator " + t.text
		case kw(i, "NOT") && !kw(i+1, "NULL"):
			return "NOT"
		case kw(i, "OFFSET") && !kw(0, "ALTER"):
			return "OFFSET"
		case kw(i, "COUNT"):
			if !sym(i+1, "(") || !sym(i+2, "*") || !sym(i+3, ")") {
				return "COUNT(expr)"
			}
			if counts++; counts > 1 {
				return "more than one COUNT(*)"
			}
			if inSelect && i > 1 {
				return "COUNT(*) beside a column (GROUP BY)"
			}
		case kw(i, "LIMIT") && sym(i+2, ","):
			return "LIMIT offset, count"
		case sym(i, "*") && !(i == 1 && inSelect) && !(sym(i-1, "(") && kw(i-2, "COUNT")):
			return "operator *"
		case sym(i, "(") && (kw(i-1, "WHERE", "ON", "AND", "NOT", "LIKE") || sym(i-1, "=", "+", "-", "(")):
			return "parenthesized expression"
		case inSelect && i > 0 && t.kind == tokIdent && (is(i-1, tokIdent) || sym(i-1, ")")):
			return "select-item alias"
		case inSelect && t.kind == tokIdent && counts > 0:
			return "COUNT(*) beside a column (GROUP BY)"
		case inSelect && i > 0 && (t.kind == tokNumber || t.kind == tokString || t.kind == tokParam ||
			kw(i, "NULL") || sym(i, "+", "-", "=")):
			return "select item other than a column"
		case inOrderBy && !(t.kind == tokIdent || t.kind == tokEOF || kw(i, "DESC") || sym(i, ".", ";")):
			return "ORDER BY key other than a column"
		}
		if kw(i, "BY") && kw(i-1, "ORDER") {
			inOrderBy = true
		}
	}
	return ""
}

// joinOnColumns reports whether toks, what follows a SELECT's ON, open with
// column = column and then end the join.
func joinOnColumns(toks []token) bool {
	i := 0
	column := func() bool {
		if toks[i].kind != tokIdent {
			return false
		}
		if i++; toks[i].kind == tokSymbol && toks[i].text == "." {
			if i++; toks[i].kind != tokIdent {
				return false
			}
			i++
		}
		return true
	}
	if !column() || toks[i].kind != tokSymbol || toks[i].text != "=" {
		return false
	}
	i++
	if !column() {
		return false
	}
	switch t := toks[i]; t.kind {
	case tokEOF:
		return true
	case tokKeyword:
		return t.text == "WHERE" || t.text == "ORDER" || t.text == "LIMIT"
	case tokSymbol:
		return t.text == ";"
	}
	return false
}

// FuzzParse: Parse never panics, and a statement that uses a form the
// dialect leaves out is always an error.
func FuzzParse(f *testing.F) {
	for _, q := range trafficTexts(f) {
		f.Add(q)
	}
	for _, c := range deletedForms {
		f.Add(c.sql)
	}
	f.Fuzz(func(t *testing.T, q string) {
		_, err := Parse(q)
		toks, lexErr := lex(q)
		if lexErr != nil {
			return
		}
		if clause := deletedClause(toks); clause != "" && err == nil {
			t.Fatalf("Parse(%q) accepted %s", q, clause)
		}
	})
}
