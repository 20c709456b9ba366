// Command doclint is the documentation hygiene gate CI's lint job runs:
//
//  1. Every relative link in the repo's markdown files must resolve to an
//     existing file or directory (anchors are stripped first) — dead
//     cross-references between README/DESIGN/PROTOCOL fail the build.
//  2. Every package under internal/ must carry a package comment, so
//     `go doc ./internal/...` is usable as operator documentation.
//  3. Every `-flag` a markdown line attributes to a daemon (a line naming
//     servletd, webserver, ... alongside the backticked flag) must be
//     registered by that daemon's cmd/<name>/main.go, directly or through
//     the cluster.Config.BindFlags it calls — documented flags that no
//     binary accepts fail the build.
//  4. No non-test Go file but internal/sqldb/value.go imports package unsafe:
//     the engine's packed value and row reference are the one place the
//     repository reads memory by address, and `make race-db` (checkptr)
//     is aimed at exactly that file.
//  5. No non-test Go file under internal/ or cmd/ but internal/frame/frame.go
//     calls net.Listen or an Accept() method: every server, and the fault
//     proxy's relay, accepts, tracks, drains and closes connections through
//     frame.Listener.
//  6. No non-test Go file under internal/ or cmd/ calls (or takes the
//     method value of) a method named ExecCached or WithReadTx, or names
//     SessionExecer but internal/sqldb/db.go, which declares it: a statement
//     has one call, Exec, read-only work needs no transaction, and the
//     deprecated spellings kept for bench/ gain no callers.
//  7. Every backticked `pkg.Name` or `pkg.Name.Member` (optionally called,
//     `pkg.Name()`) in the checked markdown whose pkg is the last path
//     element of a package under internal/ or cmd/ must resolve: Name and
//     Member must each be declared in that package — a top-level name, a
//     method, a field or an interface method (`pool.Get` is Pool.Get).
//     Packages that share a last path element are unioned. A bare
//     backticked exported identifier, `Name` or `Name()` with a capital
//     first letter and a lower-case one after it (so SQL keywords and
//     acronyms are not identifiers), must be declared in some Go file of
//     the repository, test files included. A doc naming a
//     deleted thing fails because the name resolves to nothing.
//  8. A claim is a markdown list item that opens with a bold id:
//     `**INV-slug**` for an invariant, `**DEV-slug**` for a deviation from
//     the paper or from a stated invariant. Every claim names at least one
//     backticked test (`TestX` or `FuzzX`), every test it names is declared
//     in a _test.go file, and no id is used twice. The tool prints how many
//     claims there are and how many distinct tests they name.
//  9. On every Makefile recipe line, each alternative of a `-run '…'`
//     pattern must match a Test or Fuzz function, and each `-fuzz` target a
//     Fuzz function, declared in a _test.go file of a package the line
//     names (`./dir` or `./dir/...`): a renamed test cannot silently drop
//     out of a gate. The `-run '^$$'` that runs no test is exempt.
//
// Usage:
//
//	doclint [markdown files...]   # default: *.md in the repo root
//
// Exits non-zero listing every violation.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)]+)\)`)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"doclint — markdown link + package comment checker\n\nUsage:\n  doclint [markdown files...]   (default: *.md in the current directory)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	files := flag.Args()
	if len(files) == 0 {
		var err error
		files, err = filepath.Glob("*.md")
		if err != nil || len(files) == 0 {
			fmt.Fprintln(os.Stderr, "doclint: no markdown files found")
			os.Exit(1)
		}
	}

	bad, summary := lint(files)
	fmt.Println(summary)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("doclint: ok (%d markdown files, internal packages documented)\n", len(files))
}

// lint runs every check over the markdown files, from the repository root,
// and returns the problem count and the one-line claim summary.
func lint(files []string) (int, string) {
	bad := 0
	for _, f := range files {
		bad += checkLinks(f)
	}
	bad += checkPackageComments("internal")
	bad += checkFlagDocs(files)
	bad += checkConfinedCode(".")
	decls := indexDecls(".")
	bad += checkGoRefs(files, decls)
	bad += checkMakeTests("Makefile", decls)
	n, summary := checkClaims(files, decls)
	return bad + n, summary
}

// checkLinks verifies every relative markdown link in path resolves,
// ignoring fenced code blocks and absolute URLs.
func checkLinks(path string) int {
	dir := filepath.Dir(path)
	bad := 0
	err := eachLine(path, func(n int, line string) {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := strings.TrimSpace(m[1])
			if target == "" || strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue // external or intra-document
			}
			target, _, _ = strings.Cut(target, "#") // strip the anchor
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				fmt.Fprintf(os.Stderr, "doclint: %s:%d: dead link %q\n", path, n, m[1])
				bad++
			}
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	return bad
}

// flagTokRe matches a backticked flag, optionally carrying a value:
// `-db-cache`, `-db-cache 256`, `-measure 10s`.
var flagTokRe = regexp.MustCompile("`-([a-z][a-z0-9-]*)[^`]*`")

// checkFlagDocs verifies that every backticked `-flag` token on a
// non-fenced doc line that names a daemon is registered by that daemon's
// main.go (registeredFlags). A line naming several daemons passes if any of
// them accepts the flag (prose like "servletd's -route must match the
// webserver's -ajp entry" stays legal).
func checkFlagDocs(docs []string) int {
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		return 0 // not run from the repo root; nothing to check against
	}
	// The database flags the daemons share are declared once, on the
	// FlagSet parameter fs of cluster.Config.BindFlags in cluster.go.
	bound := map[string]bool{}
	if af, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "cluster", "cluster.go"), nil, 0); err == nil {
		registeredFlags(af, "fs", nil, bound)
	}
	daemons := map[string]map[string]bool{}
	for _, m := range mains {
		flags := map[string]bool{}
		if af, err := parser.ParseFile(token.NewFileSet(), m, nil, 0); err == nil {
			registeredFlags(af, "flag", bound, flags)
		}
		daemons[filepath.Base(filepath.Dir(m))] = flags
	}
	bad := 0
	for _, path := range docs {
		eachLine(path, func(n int, line string) {
			var named []string
			for d := range daemons {
				if strings.Contains(line, d) {
					named = append(named, d)
				}
			}
			if len(named) == 0 {
				return
			}
			for _, m := range flagTokRe.FindAllStringSubmatch(line, -1) {
				fl := m[1]
				if fl == "h" || fl == "help" {
					continue // stdlib flag package built-ins
				}
				known := false
				for _, d := range named {
					if daemons[d][fl] {
						known = true
						break
					}
				}
				if !known {
					sort.Strings(named)
					fmt.Fprintf(os.Stderr, "doclint: %s:%d: flag -%s is not registered by %s\n",
						path, n, fl, strings.Join(named, " or "))
					bad++
				}
			}
		})
	}
	return bad
}

// registeredFlags adds to flags the name every recv.X("name", ...) call
// under n registers — flag.String/Int/Bool/Duration/... — and its
// recv.XVar(&dst, "name", ...) form (the literal comes second), plus every
// name in bound when n calls a BindFlags method.
func registeredFlags(n ast.Node, recv string, bound, flags map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "BindFlags" {
			for name := range bound {
				flags[name] = true
			}
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != recv || len(call.Args) == 0 {
			return true
		}
		nameArg := call.Args[0]
		if strings.HasSuffix(sel.Sel.Name, "Var") && len(call.Args) > 1 {
			nameArg = call.Args[1]
		}
		lit, ok := nameArg.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if name, err := strconv.Unquote(lit.Value); err == nil && name != "" {
			flags[name] = true
		}
		return true
	})
}

// checkPackageComments walks root for Go packages and reports every one
// whose files all lack a package comment.
func checkPackageComments(root string) int {
	// Collect the .go files (tests excluded) per directory.
	perDir := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		perDir[dir] = append(perDir[dir], path)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	bad := 0
	for dir, files := range perDir {
		documented := false
		for _, f := range files {
			// Doc comments live before the package clause; no bodies needed.
			af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", f, err)
				bad++
				continue
			}
			if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			fmt.Fprintf(os.Stderr, "doclint: package %s has no package comment\n", dir)
			bad++
		}
	}
	return bad
}

// unsafeHome is the one non-test file allowed to import package unsafe.
const unsafeHome = "internal/sqldb/value.go"

// acceptHome is the one non-test file under internal/ or cmd/ allowed to
// bind and accept: the listener every server and the fault proxy run on.
const acceptHome = "internal/frame/frame.go"

// sessionExecerHome is the one non-test file allowed to name SessionExecer.
const sessionExecerHome = "internal/sqldb/db.go"

// deprecatedCalls are the forwarders kept for bench/ alone, with what a
// caller does instead.
var deprecatedCalls = map[string]string{
	"ExecCached": "call Exec",
	"WithReadTx": "read on a session with no transaction open",
}

// checkConfinedCode walks root and reports every non-test Go file that
// imports package unsafe (other than unsafeHome) or, under internal/ or
// cmd/, calls net.Listen or an Accept() method (other than acceptHome) — a
// fifth accept loop is a second copy of frame.Listener — or uses a
// deprecatedCalls forwarder or names SessionExecer (other than
// sessionExecerHome).
func checkConfinedCode(root string) int {
	bad := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, bench/.build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		af, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", path, err)
			bad++
			return nil
		}
		rel := filepath.ToSlash(path)
		for _, im := range af.Imports {
			if name, _ := strconv.Unquote(im.Path.Value); name == `unsafe` && rel != unsafeHome {
				fmt.Fprintf(os.Stderr, "doclint: %s imports unsafe; only %s may\n", path, unsafeHome)
				bad++
			}
		}
		if !(strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) {
			return nil
		}
		ast.Inspect(af, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "SessionExecer" && rel != sessionExecerHome {
					fmt.Fprintf(os.Stderr, "doclint: %s: names the deprecated SessionExecer; a *sqldb.Session is an Execer\n",
						fset.Position(n.Pos()))
					bad++
				}
			case *ast.SelectorExpr:
				if fix := deprecatedCalls[n.Sel.Name]; fix != "" {
					fmt.Fprintf(os.Stderr, "doclint: %s: uses the deprecated %s; %s\n", fset.Position(n.Sel.Pos()), n.Sel.Name, fix)
					bad++
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || rel == acceptHome {
					return true
				}
				pkg, _ := sel.X.(*ast.Ident)
				if (pkg != nil && pkg.Name == "net" && sel.Sel.Name == "Listen") || (sel.Sel.Name == "Accept" && len(n.Args) == 0) {
					fmt.Fprintf(os.Stderr, "doclint: %s: calls %s; servers accept through frame.Listener (internal/frame/frame.go)\n",
						fset.Position(n.Pos()), sel.Sel.Name)
					bad++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		bad++
	}
	return bad
}

// decls is what the repository's Go code declares, for the doc checks.
type decls struct {
	pkgs   map[string]map[string]bool // package name -> names its non-test files under internal/ and cmd/ declare
	names  map[string]bool            // every name any Go file declares, test files included
	tests  map[string]bool            // the Test and Fuzz functions _test.go files declare
	testIn map[string][]string        // directory -> the Test and Fuzz functions its _test.go files declare
}

// indexDecls parses every Go file under root, skipping dot directories.
func indexDecls(root string) decls {
	d := decls{pkgs: map[string]map[string]bool{}, names: map[string]bool{}, tests: map[string]bool{}, testIn: map[string][]string{}}
	filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		af, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil // checkConfinedCode already reported it
		}
		collectDecls(af, d.names)
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range af.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testRe.MatchString(fn.Name.Name) {
					d.tests[fn.Name.Name] = true
					dir := filepath.ToSlash(filepath.Dir(path))
					d.testIn[dir] = append(d.testIn[dir], fn.Name.Name)
				}
			}
			return nil
		}
		rel := filepath.ToSlash(path)
		if strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/") {
			name := filepath.Base(filepath.Dir(path))
			if d.pkgs[name] == nil {
				d.pkgs[name] = map[string]bool{}
			}
			collectDecls(af, d.pkgs[name])
		}
		return nil
	})
	return d
}

// goRefRe matches a backticked Go reference to a package-level name:
// `pkg.Name`, `pkg.Name.Member`, either optionally called. Name must be
// exported, which keeps file names (`cluster.go`) and bench metric names
// (`wire.stmts_per_op`) out.
var goRefRe = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?(?:\\(\\))?`")

// bareRefRe matches a backticked bare exported identifier, optionally
// called: `Name`, `Name()`. checkGoRefs keeps those with a lower-case
// letter, so `SELECT` and `DSN` are words, not identifiers.
var bareRefRe = regexp.MustCompile("`([A-Z][A-Za-z0-9_]*)(?:\\(\\))?`")

// eachLine calls fn for every line of the markdown file outside fenced
// code blocks, with its 1-based number. Only checkLinks reports a file it
// cannot read; the other checks skip it.
func eachLine(path string, fn func(n int, line string)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			fn(i+1, line)
		}
	}
	return nil
}

// checkGoRefs reports every backticked Go reference in docs that resolves
// to nothing: a `pkg.Name` whose package exists under internal/ or cmd/ but
// does not declare the name, and a bare `Name` no Go file declares.
func checkGoRefs(docs []string, d decls) int {
	bad := 0
	for _, path := range docs {
		eachLine(path, func(n int, line string) {
			for _, m := range goRefRe.FindAllStringSubmatch(line, -1) {
				names := d.pkgs[m[1]]
				if names == nil || (names[m[2]] && (m[3] == "" || names[m[3]])) {
					continue
				}
				fmt.Fprintf(os.Stderr, "doclint: %s:%d: %s names nothing declared in package %s\n", path, n, m[0], m[1])
				bad++
			}
			claim := claimRe.MatchString(line)
			for _, m := range bareRefRe.FindAllStringSubmatch(line, -1) {
				if strings.ToUpper(m[1]) == m[1] || d.names[m[1]] || (claim && testRe.MatchString(m[1])) {
					continue // checkClaims reports a claim's missing test
				}
				fmt.Fprintf(os.Stderr, "doclint: %s:%d: %s names nothing declared in the repository\n", path, n, m[0])
				bad++
			}
		})
	}
	return bad
}

// claimRe matches a claim line and captures its id; testRe a test
// function's name, and testRefRe a backticked one.
var (
	claimRe   = regexp.MustCompile(`^\s*[-*] \*\*((?:INV|DEV)-[a-z0-9]+(?:-[a-z0-9]+)*)\*\*`)
	testRe    = regexp.MustCompile(`^(?:Test|Fuzz)(?:[^a-z].*)?$`)
	testRefRe = regexp.MustCompile("`((?:Test|Fuzz)[A-Z0-9_][A-Za-z0-9_]*)`")
)

// checkClaims reports every claim that names no test, names a test no
// _test.go file declares, or reuses an id, and returns the problem count
// with the summary line.
func checkClaims(docs []string, d decls) (int, string) {
	bad, claims, devs := 0, 0, 0
	seen := map[string]string{}
	named := map[string]bool{}
	for _, path := range docs {
		eachLine(path, func(n int, line string) {
			m := claimRe.FindStringSubmatch(line)
			if m == nil {
				return
			}
			id, at := m[1], fmt.Sprintf("%s:%d", path, n)
			claims++
			if strings.HasPrefix(id, "DEV-") {
				devs++
			}
			if prev, dup := seen[id]; dup {
				fmt.Fprintf(os.Stderr, "doclint: %s: claim %s already stated at %s\n", at, id, prev)
				bad++
			}
			seen[id] = at
			tests := testRefRe.FindAllStringSubmatch(line, -1)
			if len(tests) == 0 {
				fmt.Fprintf(os.Stderr, "doclint: %s: claim %s names no test\n", at, id)
				bad++
			}
			for _, t := range tests {
				named[t[1]] = true
				if !d.tests[t[1]] {
					fmt.Fprintf(os.Stderr, "doclint: %s: claim %s names %s, which no _test.go file declares\n", at, id, t[1])
					bad++
				}
			}
		})
	}
	return bad, fmt.Sprintf("doclint: %d claims (%d invariants, %d deviations) name %d distinct tests",
		claims, claims-devs, devs, len(named))
}

// makeRunRe matches a -run pattern, quoted or not; makeFuzzRe a -fuzz
// target; makePkgRe a package argument, `./dir` or `./dir/...`.
var (
	makeRunRe  = regexp.MustCompile(`-run (?:'([^']*)'|(\S+))`)
	makeFuzzRe = regexp.MustCompile(`-fuzz (\S+)`)
	makePkgRe  = regexp.MustCompile(`(?:^|\s)\./(\S*)`)
)

// checkMakeTests reports every -run alternative and -fuzz target on a
// recipe line of the Makefile at path (continuations joined) that matches
// no Test or Fuzz function declared in the packages that line names.
func checkMakeTests(path string, d decls) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0 // no Makefile: nothing to check
	}
	bad := 0
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		at, line := i+1, lines[i]
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + lines[i]
		}
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		line = strings.ReplaceAll(line, "$$", "$")
		var tests []string
		for _, m := range makePkgRe.FindAllStringSubmatch(line, -1) {
			dir, all := strings.CutSuffix(m[1], "...")
			dir = strings.TrimSuffix(dir, "/")
			for td, names := range d.testIn {
				if td == dir || dir == "" && all || all && strings.HasPrefix(td, dir+"/") {
					tests = append(tests, names...)
				}
			}
		}
		check := func(flag, pat, prefix string) {
			re, err := regexp.Compile(pat)
			if err == nil && slices.ContainsFunc(tests, func(t string) bool { return strings.HasPrefix(t, prefix) && re.MatchString(t) }) {
				return
			}
			fmt.Fprintf(os.Stderr, "doclint: %s:%d: %s %s matches no test in the packages the line names\n", path, at, flag, pat)
			bad++
		}
		for _, m := range makeRunRe.FindAllStringSubmatch(line, -1) {
			for _, alt := range strings.Split(m[1]+m[2], "|") {
				if alt != "^$" {
					check("-run", alt, "")
				}
			}
		}
		for _, m := range makeFuzzRe.FindAllStringSubmatch(line, -1) {
			check("-fuzz", m[1], "Fuzz")
		}
	}
	return bad
}

// collectDecls adds the names one file declares: functions, methods,
// types, variables and constants at top level, and the fields and interface
// methods of every struct and interface type in it.
func collectDecls(af *ast.File, names map[string]bool) {
	for _, decl := range af.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			names[decl.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					names[spec.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(af, func(n ast.Node) bool {
		var fields *ast.FieldList
		switch n := n.(type) {
		case *ast.StructType:
			fields = n.Fields
		case *ast.InterfaceType:
			fields = n.Methods
		default:
			return true
		}
		for _, f := range fields.List {
			for _, n := range f.Names {
				names[n.Name] = true
			}
			if len(f.Names) == 0 { // embedded: promoted under its type's name
				t := f.Type
				if st, ok := t.(*ast.StarExpr); ok {
					t = st.X
				}
				if sel, ok := t.(*ast.SelectorExpr); ok {
					t = sel.Sel
				}
				if id, ok := t.(*ast.Ident); ok {
					names[id.Name] = true
				}
			}
		}
		return true
	})
}
