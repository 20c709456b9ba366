// Command doclint is the documentation hygiene gate CI's lint job runs:
//
//  1. Every relative link in the repo's markdown files must resolve to an
//     existing file or directory (anchors are stripped first) — dead
//     cross-references between README/DESIGN/PROTOCOL fail the build.
//  2. Every package under internal/ must carry a package comment, so
//     `go doc ./internal/...` is usable as operator documentation.
//  3. Every `-flag` a markdown line attributes to a daemon (a line naming
//     servletd, webserver, ... alongside the backticked flag) must be
//     registered by that daemon's cmd/<name>/main.go — documented flags
//     that no binary accepts fail the build. The same walk fails a line
//     that names an identifier the code no longer has (removedIdents).
//  4. No non-test Go file but internal/sqldb/value.go imports package unsafe:
//     the engine's packed value and row reference are the one place the
//     repository reads memory by address, and `make race-db` (checkptr)
//     is aimed at exactly that file.
//  5. No non-test Go file under internal/ or cmd/ but internal/frame/frame.go
//     and internal/chaos/chaos.go calls net.Listen or an Accept() method:
//     every server accepts, tracks, drains and closes connections through
//     frame.Listener, and the fault proxy is the one relay.
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
//     Same-named packages (internal/cluster, internal/sim/cluster) are
//     unioned.
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

	bad := 0
	for _, f := range files {
		bad += checkLinks(f)
	}
	bad += checkPackageComments("internal")
	bad += checkFlagDocs(files)
	bad += checkConfinedCode(".")
	bad += checkGoRefs(files)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("doclint: ok (%d markdown files, internal packages documented)\n", len(files))
}

// checkLinks verifies every relative markdown link in path resolves,
// ignoring fenced code blocks and absolute URLs.
func checkLinks(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	dir := filepath.Dir(path)
	bad := 0
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := strings.TrimSpace(m[1])
			if target == "" || strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue // external or intra-document
			}
			target, _, _ = strings.Cut(target, "#") // strip the anchor
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				fmt.Fprintf(os.Stderr, "doclint: %s:%d: dead link %q\n", path, i+1, m[1])
				bad++
			}
		}
	}
	return bad
}

// flagTokRe matches a backticked flag, optionally carrying a value:
// `-db-cache`, `-db-cache 256`, `-measure 10s`.
var flagTokRe = regexp.MustCompile("`-([a-z][a-z0-9-]*)[^`]*`")

// removedIdents are identifiers deleted from the code that the docs used to
// name: a line still mentioning one describes a shape that no longer
// exists (the LOCK TABLES bracket and its cluster-side routing; the cluster
// client's sharded method arms, prepared-handle type and byte-scanning
// scatter rewrite; core's field-by-field counter copy, the pool's retry
// backoff and the router's token scanner; core's second copy of the
// assembly and the BENCH_<n>.json perf gate; the engine's second, locked
// read path with its refresh policy, and the undo log; the replica set's
// single-backend statement path and its per-client topology lock; the wire
// protocol's private frame reader and cap, and the web server's idle timer;
// the BENCH_<n>.json recorder, the root think-timer benchmarks and unset
// core.Config options; the plan cache's whitespace normaliser and the
// hand-written LRUs internal/lru replaced; the wire client's handle API and
// the pool's notify variant of the second statement call; the tiers'
// single-counter accessors the telemetry rows replaced, config fields
// nothing set, and the rejoin copy's second exported entry point; the SQL
// clauses no caller issued — GROUP BY, DISTINCT, OFFSET and every aggregate
// but COUNT(*) — with their executor and scatter-merge code; a name the docs
// gave the readonly_txns counter, which it never had).
var removedIdents = []string{
	"execLock", "HoldsLocks", "bracketAll", "kindLock",
	"shExec", "shBegin", "shCommit", "cluster.Stmt", "Client.Prepare", "topLevelFrom",
	"addClusterStats", "RetryAttempts", "RetryBackoff", "RetrySeed", "sleepBackoff", "tokenAfter",
	"seedShards", "staticImages", "bench-gate",
	"snapRefreshMin", "refreshSnap", "liveReadLocks", "txnReadLocks", "lockReads", "live_fallbacks", "undoRec", "rowOrder",
	"singleExec", "topoHeld",
	"frameBuf", "maxFrameLen", "IdleTimeout",
	"benchjson", "bench-json", "AppPoolSize", "DBSyncTimeout", "DBCheckpointEvery", "IPCPerCharCost",
	"EJBQueryTraffic", "RealStackFrontEndCost", "RealStackWorkload", "ClusterReplicaSweep",
	"ShardSweep", "AppReplicaSweep", "CacheSweep", "TxnContentionSweep", "ReadOnlyTxnSweep",
	"normalizeQuery", "newPlanCache", "newQueryCache",
	"ExecPrepared", "ExecCachedNotify", "Pool.Prepare",
	"EJBQueryCount", "ReplicaQueryCounts", "RequestCount", "ResponseBytes", "LoadCount",
	"PGEDelay", "CookieName", "SyncWithin",
	"GroupBy", "LimitPos", "AggSum", "AggMin", "AggMax", "AggAvg", "dedupRows", "distinctRows", "orderAggRows",
	"tx_readonly",
}

// checkFlagDocs verifies that every backticked `-flag` token on a
// non-fenced doc line that names a daemon is registered by that daemon's
// main.go. A line naming several daemons passes if any of them accepts
// the flag (prose like "servletd's -route must match the webserver's
// -ajp entry" stays legal).
func checkFlagDocs(docs []string) int {
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		return 0 // not run from the repo root; nothing to check against
	}
	daemons := map[string]map[string]bool{}
	for _, m := range mains {
		daemons[filepath.Base(filepath.Dir(m))] = registeredFlags(m)
	}
	bad := 0
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // checkLinks already reported it
		}
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			for _, id := range removedIdents {
				if strings.Contains(line, id) {
					fmt.Fprintf(os.Stderr, "doclint: %s:%d: mentions %s, which the code no longer has\n", path, i+1, id)
					bad++
				}
			}
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			var named []string
			for d := range daemons {
				if strings.Contains(line, d) {
					named = append(named, d)
				}
			}
			if len(named) == 0 {
				continue
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
						path, i+1, fl, strings.Join(named, " or "))
					bad++
				}
			}
		}
	}
	return bad
}

// registeredFlags collects the flag names a main.go registers through
// flag.String/Int/Bool/Duration/... calls (any flag.X whose first argument
// is a string literal) and their flag.XVar(&dst, "name", ...) forms (the
// literal comes second).
func registeredFlags(path string) map[string]bool {
	flags := map[string]bool{}
	af, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return flags
	}
	ast.Inspect(af, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
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
	return flags
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

// sessionExecerHome is the one non-test file allowed to name SessionExecer.
const sessionExecerHome = "internal/sqldb/db.go"

// deprecatedCalls are the forwarders kept for bench/ alone, with what a
// caller does instead.
var deprecatedCalls = map[string]string{
	"ExecCached": "call Exec",
	"WithReadTx": "read on a session with no transaction open",
}

// acceptHomes are the non-test files allowed to bind and accept: the server
// skeleton all four servers run on, and the fault proxy — a relay, not a
// request/response server, and the one documented exception.
var acceptHomes = map[string]bool{
	"internal/frame/frame.go": true,
	"internal/chaos/chaos.go": true,
}

// checkConfinedCode walks root and reports every non-test Go file that
// imports package unsafe (other than unsafeHome) or, under internal/ or
// cmd/, calls net.Listen or an Accept() method (other than acceptHomes) — a
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
				if !ok || acceptHomes[rel] {
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

// goRefRe matches a backticked Go reference to a package-level name:
// `pkg.Name`, `pkg.Name.Member`, either optionally called. Name must be
// exported, which keeps file names (`cluster.go`) and bench metric names
// (`wire.stmts_per_op`) out.
var goRefRe = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?(?:\\(\\))?`")

// checkGoRefs reports every backticked Go reference in docs whose package
// exists under internal/ or cmd/ but does not declare the name.
func checkGoRefs(docs []string) int {
	pkgs := map[string]map[string]bool{} // package name -> declared names
	for _, root := range []string{"internal", "cmd"} {
		filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			af, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil // checkConfinedCode already reported it
			}
			name := filepath.Base(filepath.Dir(path))
			if pkgs[name] == nil {
				pkgs[name] = map[string]bool{}
			}
			collectDecls(af, pkgs[name])
			return nil
		})
	}
	bad := 0
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // checkLinks already reported it
		}
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range goRefRe.FindAllStringSubmatch(line, -1) {
				names := pkgs[m[1]]
				if names == nil || (names[m[2]] && (m[3] == "" || names[m[3]])) {
					continue
				}
				fmt.Fprintf(os.Stderr, "doclint: %s:%d: %s names nothing declared in package %s\n", path, i+1, m[0], m[1])
				bad++
			}
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
