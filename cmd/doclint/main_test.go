package main

import (
	"os"
	"path/filepath"
	"testing"
)

// fixture is a one-package repository the doc cases are checked against:
// Widget and its members are declared, TestWidgetSpins and FuzzWidget are
// tests, BenchmarkSpin is a benchmark, and TestLookalike is declared
// outside a _test.go file.
var fixture = map[string]string{
	"internal/foo/foo.go": `// Package foo is a doclint fixture.
package foo

// Widget is declared.
type Widget struct{ Size int }

// Spin is a method.
func (Widget) Spin() {}

// TestLookalike is not a test: it lives outside a _test.go file.
func TestLookalike() {}
`,
	"internal/foo/foo_test.go": `package foo

import "testing"

func TestWidgetSpins(t *testing.T) {}

func FuzzWidget(f *testing.F) {}

func BenchmarkSpin(b *testing.B) {}
`,
}

func TestLintDocs(t *testing.T) {
	cases := []struct {
		name, doc string
		bad       int
	}{
		{"claim names a missing test", "- **INV-foo-spin** A widget spins (`TestWidgetFlies`).\n", 1},
		{"claim names no test", "- **INV-foo-spin** A widget spins.\n", 1},
		{"claim names only a benchmark", "- **INV-foo-spin** A widget spins (`BenchmarkSpin`).\n", 1},
		{"claim names a non-test function", "- **DEV-foo-look** Pinned by `TestLookalike`.\n", 1},
		{"claim id used twice", "- **INV-foo-spin** `TestWidgetSpins`.\n- **INV-foo-spin** `FuzzWidget`.\n", 1},
		{"bare name declared nowhere", "A `Gadget` spins.\n", 1},
		{"bare test name declared nowhere", "See `TestGadget`.\n", 1},
		{"package name declared nowhere", "A `foo.Gadget` spins.\n", 1},
		{"member declared nowhere", "A `foo.Widget.Weight` spins.\n", 1},
		{"words that are not identifiers", "`SELECT`, `NULL`, `COUNT(*)`, `DSN`, `-db-cache 256`, `-measure 10s`, " +
			"`ips`, `wire.stmts_per_op`, `cluster.go`, `X-Content-Epoch`.\n", 0},
		{"declared names", "`Widget`, `Spin()`, `Size`, `foo.Widget.Size`, `foo.Widget.Spin()`, `TestWidgetSpins`, " +
			"`TestLookalike`.\n", 0},
		{"claims with tests", "- **INV-foo-spin** A widget spins: `TestWidgetSpins`.\n" +
			"- **DEV-foo-fuzz** Fuzzed, not proved: `FuzzWidget`, `TestWidgetSpins`.\n", 0},
		{"fenced code is not prose", "```\n`Gadget` `TestGadget`\n- **INV-foo-spin** no test\n```\n", 0},
	}
	inFixture(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile("DOC.md", []byte(c.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			if bad, _ := lint([]string{"DOC.md"}); bad != c.bad {
				t.Errorf("%d problem(s), want %d in:\n%s", bad, c.bad, c.doc)
			}
		})
	}
}

// TestLintConfinedCode: each confinement rule fails a fixture file that
// breaks it.
func TestLintConfinedCode(t *testing.T) {
	extra := filepath.Join("internal", "foo", "extra.go")
	cases := map[string]struct{ path, src string }{
		"unsafe outside value.go": {extra, "package foo\n\nimport _ \"unsafe\"\n"},
		"a second accept loop":    {extra, "package foo\n\nimport \"net\"\n\nfunc listen() { net.Listen(\"tcp\", \":0\") }\n"},
		"a deprecated call":       {extra, "package foo\n\nfunc read(c interface{ ExecCached(string) }) { c.ExecCached(\"\") }\n"},
		"an accept loop in the fault proxy": {filepath.Join("internal", "chaos", "chaos.go"),
			"// Package chaos is a fixture.\npackage chaos\n\nimport \"net\"\n\nfunc listen() { net.Listen(\"tcp\", \":0\") }\n"},
	}
	inFixture(t)
	if err := os.WriteFile("DOC.md", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.MkdirAll(filepath.Dir(tc.path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(tc.path, []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.Remove(tc.path)
			if bad, _ := lint([]string{"DOC.md"}); bad != 1 {
				t.Errorf("%d problem(s), want 1 in %s:\n%s", bad, tc.path, tc.src)
			}
		})
	}
}

// TestLintMakeTests: a -run alternative or a -fuzz target that names no
// test in the packages of its line fails; live names, `./...` and the
// -run '^$$' that runs nothing pass.
func TestLintMakeTests(t *testing.T) {
	cases := []struct {
		name, makefile string
		bad            int
	}{
		{"live names", "x:\n\t$(GO) test -run 'WidgetSpins|Widget' ./internal/foo\n" +
			"\t$(GO) test -run '^$$' -fuzz FuzzWidget -fuzztime 1s ./internal/foo\n" +
			"\t$(GO) test -run '^$$' -bench . ./...\n", 0},
		{"continued line", "x:\n\t$(GO) test -race \\\n\t\t-run 'WidgetSpins|Widget' \\\n\t\t./internal/...\n", 0},
		{"a renamed test", "x:\n\t$(GO) test -run 'WidgetSpins|WidgetFlies' ./internal/foo\n", 1},
		{"a test of another package", "x:\n\t$(GO) test -run WidgetSpins ./internal/bar\n", 1},
		{"a function outside a _test.go file", "x:\n\t$(GO) test -run 'Lookalike' ./internal/foo\n", 1},
		{"a fuzz target that is a test", "x:\n\t$(GO) test -run '^$$' -fuzz TestWidgetSpins ./internal/foo\n", 1},
		{"a comment is not a recipe", "# $(GO) test -run 'Gadget' ./internal/foo\n", 0},
	}
	inFixture(t)
	if err := os.WriteFile("DOC.md", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile("Makefile", []byte(c.makefile), 0o644); err != nil {
				t.Fatal(err)
			}
			if bad, _ := lint([]string{"DOC.md"}); bad != c.bad {
				t.Errorf("%d problem(s), want %d in:\n%s", bad, c.bad, c.makefile)
			}
		})
	}
}

// inFixture writes the fixture repository to a temporary directory and
// makes it the working directory for the rest of the test.
func inFixture(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	for path, src := range fixture {
		path = filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
}

func TestClaimSummary(t *testing.T) {
	chdir(t, t.TempDir())
	doc := "- **INV-a** `TestA`, `TestB`.\n- **DEV-b** `TestB`.\n* **INV-c** `FuzzC`.\n"
	if err := os.WriteFile("DOC.md", []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, got := checkClaims([]string{"DOC.md"}, decls{tests: map[string]bool{"TestA": true, "TestB": true, "FuzzC": true}})
	if want := "doclint: 3 claims (2 invariants, 1 deviations) name 3 distinct tests"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
}

// chdir makes dir the working directory until the test ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}
