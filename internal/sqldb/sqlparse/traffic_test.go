package sqlparse

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"strings"
	"testing"
)

// grammarAllowlist names the declared grammar that no line of
// testdata/statements.sql produces, each with why it stays.
var grammarAllowlist = map[string]bool{
	// Transaction control arrives as wire frames (BEGIN, COMMIT, ROLLBACK,
	// PREPARE-TXN), not as statement text; TestStorageGoldenStream sends
	// BEGIN, COMMIT and ROLLBACK as text.
	"Begin": true, "Commit": true, "Rollback": true, "PrepareTxn": true,
	// testdata/wal-pr19 holds a logged INSERT with a -1, which recovery
	// replays.
	"NegExpr": true,
	// The operator's one view of a backend's log (sqlsh); the WAL tests
	// read it, no application does.
	"ShowWALStatus": true,
}

// declaredGrammar reads ast.go: the Statement types, the Expr types and the
// BinaryOp constants.
func declaredGrammar(t *testing.T) []string {
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl: // func (*T) stmt() {} and func (*T) expr() {}
			if d.Recv == nil || (d.Name.Name != "stmt" && d.Name.Name != "expr") {
				continue
			}
			names = append(names, d.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
		case *ast.GenDecl: // the const block whose first constant is a BinaryOp
			if d.Tok != gotoken.CONST {
				continue
			}
			if typ, ok := d.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "BinaryOp" {
				continue
			}
			for _, s := range d.Specs {
				names = append(names, s.(*ast.ValueSpec).Names[0].Name)
			}
		}
	}
	return names
}

// producedGrammar records the statement types, expression types and
// operators st is built from.
func producedGrammar(st Statement, seen map[string]bool) {
	var exprs []Expr
	switch s := st.(type) {
	case *Insert:
		for _, row := range s.Rows {
			exprs = append(exprs, row...)
		}
	case *Update:
		for _, a := range s.Set {
			exprs = append(exprs, a.Value)
		}
		exprs = append(exprs, s.Where)
	case *Delete:
		exprs = append(exprs, s.Where)
	case *Select:
		for _, c := range s.Columns {
			exprs = append(exprs, c)
		}
		if s.Join != nil {
			exprs = append(exprs, s.Join.L, s.Join.R)
		}
		if s.OrderBy != nil {
			exprs = append(exprs, s.OrderBy.Col)
		}
		exprs = append(exprs, s.Where)
	}
	seen[strings.TrimPrefix(fmt.Sprintf("%T", st), "*sqlparse.")] = true
	for len(exprs) > 0 {
		e := exprs[len(exprs)-1]
		exprs = exprs[:len(exprs)-1]
		switch x := e.(type) {
		case nil:
			continue
		case *BinaryExpr:
			seen[opName[x.Op]] = true
			exprs = append(exprs, x.L, x.R)
		case *NegExpr:
			exprs = append(exprs, x.E)
		}
		seen[strings.TrimPrefix(fmt.Sprintf("%T", e), "*sqlparse.")] = true
	}
}

var opName = map[BinaryOp]string{OpEq: "OpEq", OpAnd: "OpAnd", OpAdd: "OpAdd", OpSub: "OpSub", OpLike: "OpLike"}

// TestGrammarIsTraffic: the lines of testdata/statements.sql produce every
// Statement type, every Expr type (literals included) and every BinaryOp
// ast.go declares, but for the commented allowlist — so the grammar cannot
// grow a form no application sends.
func TestGrammarIsTraffic(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range trafficTexts(t) {
		st, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		producedGrammar(st, seen)
	}
	declared := declaredGrammar(t)
	if len(declared) < 20 {
		t.Fatalf("read only %d grammar names from ast.go: %v", len(declared), declared)
	}
	for _, name := range declared {
		allowed := grammarAllowlist[name]
		switch {
		case !seen[name] && !allowed:
			t.Errorf("%s is in the grammar but no application statement uses it", name)
		case seen[name] && allowed:
			t.Errorf("%s is allowlisted but the traffic uses it", name)
		}
	}
	for name := range grammarAllowlist {
		if !strings.Contains(strings.Join(declared, " ")+" ", name+" ") {
			t.Errorf("allowlisted %s is not declared in ast.go", name)
		}
	}
}

// BenchmarkParseTraffic: each op parses every line of
// testdata/statements.sql; ns/stmt is the cost of one.
func BenchmarkParseTraffic(b *testing.B) {
	texts := trafficTexts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range texts {
			if _, err := Parse(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(texts)), "ns/stmt")
}
