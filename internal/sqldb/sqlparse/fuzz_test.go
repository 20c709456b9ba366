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

// deletedClause names the first clause in toks that the dialect leaves out,
// or returns "".
func deletedClause(toks []token) string {
	sym := func(i int, text string) bool {
		return i < len(toks) && toks[i].kind == tokSymbol && toks[i].text == text
	}
	for i, t := range toks {
		if t.kind != tokKeyword {
			continue
		}
		switch t.text {
		case "GROUP", "DISTINCT", "SUM", "MIN", "MAX", "AVG":
			return t.text
		case "OFFSET":
			if toks[0].text != "ALTER" {
				return t.text
			}
		case "COUNT":
			if !sym(i+1, "(") || !sym(i+2, "*") || !sym(i+3, ")") {
				return "COUNT(expr)"
			}
		case "LIMIT":
			if sym(i+2, ",") {
				return "LIMIT offset, count"
			}
		}
	}
	return ""
}

// FuzzParse: Parse never panics, and a statement that uses a clause the
// dialect leaves out is always an error.
func FuzzParse(f *testing.F) {
	for _, q := range trafficTexts(f) {
		f.Add(q)
	}
	for _, q := range []string{
		"SELECT item_id, COUNT(*) FROM bids GROUP BY item_id",
		"SELECT DISTINCT category FROM items",
		"SELECT id FROM items ORDER BY id LIMIT 3 OFFSET 4",
		"SELECT id FROM items LIMIT 4, 3",
		"SELECT SUM(bid), MIN(bid), MAX(bid), AVG(bid) FROM bids",
		"SELECT COUNT(id) FROM bids",
	} {
		f.Add(q)
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
