# Paper-reproduction build targets. `make ci` mirrors the GitHub workflow
# locally: lint, build, race tests, the paper's shape claims and the bench
# smoke, which runs every package micro-benchmark (and the perfsim
# ablations) once. Performance is measured and claimed on bench/ (see
# bench/README.md); the paper's figures are printed by `go run ./cmd/repro`.

GO ?= go

# Per-package statement-coverage floors for `make cover` (pkg:percent).
# The transaction-bearing packages are held to a floor: advisory on pull
# requests in CI, enforced on pushes to main. The sqldb floor rose with the
# durability work (write-ahead log, recovery, crash harness).
COVER_FLOORS ?= repro/internal/sqldb:80 repro/internal/cluster:60

.PHONY: build test race race-db vet lint fmt docs-lint loc bench-smoke chaos-smoke wal-torture cover repro ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The race detector over the transaction-bearing packages only — the
# engine (WAL, MVCC, locks, wire), the cluster client, and internal/lru,
# where the plan cache's and the query cache's lock lives. Seconds, not
# minutes: the pre-merge floor beside `make test`. -race also turns on
# checkptr, which validates every unsafe.String / unsafe.Slice in
# internal/sqldb/value.go (the one file `make docs-lint` lets import
# unsafe): this target is what covers the engine's pointer arithmetic.
race-db:
	$(GO) test -race ./internal/sqldb/... ./internal/cluster ./internal/lru

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; any output fails the target.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Documentation hygiene: dead relative links in the markdown docs and
# internal/* packages missing a package comment fail the lint job — as does
# an `import "unsafe"` in any non-test file but internal/sqldb/value.go, and
# a net.Listen or Accept() call in any non-test file under internal/ or cmd/
# but internal/frame/frame.go: a second accept loop cannot appear
# unnoticed. So does a use of the deprecated ExecCached,
# WithReadTx or SessionExecer under internal/ or cmd/ (bench/ alone still
# spells them; a statement has one call, Exec, and read-only work needs no
# transaction), a backticked `pkg.Name` in the docs that names nothing
# declared in that internal/ or cmd/ package, a backticked bare `Name` that
# no Go file declares, and a claim (`**INV-…**` / `**DEV-…**`) that names no
# test or a test no _test.go file declares. It prints the claim count and
# the number of distinct tests the claims name. The lint does not see a
# second frame codec; `binary.BigEndian.PutUint32(hdr` or a 5-byte header
# read outside internal/frame is what review looks for.
docs-lint:
	$(GO) run ./cmd/doclint README.md DESIGN.md PROTOCOL.md PAPER.md PAPERS.md

lint: fmt vet docs-lint

# Size of the system, ROADMAP item 3's size gauge: non-test Go lines per
# cmd and internal package (nested ones counted on their own) and the
# internal total — the number a simplification moves — plus the cluster +
# core + telemetry sum item 3's target is stated against, the auction +
# bookstore sum item 23's one-presentation target is stated against, the
# servlet + ejb + rmi + scriptmod sum of the middle tiers (the container
# API the six configurations call), the cmd/ total, and internal + cmd:
# wiring moves across that border, so only the sum says whether the
# system shrank. Last, the line counts of the three checked design docs:
# the docs budget.
loc:
	@for d in $$(find internal cmd -type d | sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		[ $$n -gt 0 ] && printf '%7d  %s\n' $$n $$d; \
	done; \
	printf '%7d  total\n' $$(find internal -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%7d  cmd\n' $$(find cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%7d  internal + cmd\n' $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%7d  cluster + core + telemetry\n' $$(find internal/cluster internal/core internal/telemetry -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%7d  auction + bookstore\n' $$(find internal/auction internal/bookstore -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%7d  servlet + ejb + rmi + scriptmod\n' $$(find internal/servlet internal/ejb internal/rmi internal/scriptmod -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	for f in README.md DESIGN.md PROTOCOL.md; do printf '%7d  %s\n' $$(wc -l < $$f) $$f; done

# One-iteration smoke run of the package micro-benchmarks: fails fast when
# a protocol or API change breaks one, without measuring anything (CI runs
# this).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Chaos smoke: the deterministic fault-injection matrix (tier × fault ×
# timing), the slow-failure regressions in cluster and lb, and replica
# deaths around a multi-row INSERT split across shards (SplitInsert),
# under -race with a hard timeout — a hang past a deadline is itself the
# bug. The proxy's own tests run three times: a Close that hangs behind a
# stalled relay fails the target rather than a lucky single pass.
chaos-smoke:
	$(GO) test -race -count=3 -timeout 120s ./internal/chaos
	$(GO) test -race -timeout 180s \
		-run 'Chaos|SplitInsert|Degraded|SlowReplica|PinnedRead|ReadOnlyTxnSkipsEjectedPinnedReplica|RejoinDeadline|RejoinExcludes|SyncWithin|PoolWaitTimeout|StalledBackend|DBRestart|Not404' \
		./internal/core ./internal/cluster ./internal/lb

# WAL torture: the durability battery. Crash points, torn tails, and
# subprocess kill -9 recovery in sqldb; short fuzz passes over the record
# decoder, the copy-on-write tree every table and checkpoint is made of,
# the stored value against its model, index probes against a scan, the SQL
# parser every logged statement is replayed through (no panic, and no
# clause outside the dialect accepted) and the shard router's pins against
# one engine holding every row; the cluster's rejoin of a durable replica
# (copied, crashed, recovered), and the full-stack crash matrix in core —
# all under -race with hard timeouts but the fuzz passes.
wal-torture:
	$(GO) test -race -timeout 300s -run 'WAL|Recover|TornTail|Checkpoint' \
		./internal/sqldb ./internal/cluster ./internal/core
	$(GO) test -timeout 120s -run '^$$' -fuzz FuzzWALRecord -fuzztime 20s ./internal/sqldb
	$(GO) test -timeout 120s -run '^$$' -fuzz FuzzCowTree -fuzztime 10s ./internal/sqldb
	$(GO) test -timeout 120s -run '^$$' -fuzz FuzzValue -fuzztime 10s ./internal/sqldb
	$(GO) test -timeout 120s -run '^$$' -fuzz FuzzIndexProbe -fuzztime 10s ./internal/sqldb
	$(GO) test -timeout 120s -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sqldb/sqlparse
	$(GO) test -timeout 120s -run '^$$' -fuzz FuzzShardPins -fuzztime 10s ./internal/cluster

# Coverage run with per-package floors: every package reports, the
# packages named in COVER_FLOORS must clear their floor.
cover:
	@$(GO) test -cover ./... > coverage.txt; status=$$?; cat coverage.txt; \
		if [ $$status -ne 0 ]; then echo "cover: tests failed"; exit $$status; fi
	@fail=0; \
	for spec in $(COVER_FLOORS); do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		pct=$$(awk -v p="$$pkg" '$$2 == p && /coverage:/ { for (i = 1; i <= NF; i++) if ($$i ~ /%/) { gsub(/%/, "", $$i); print $$i } }' coverage.txt); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg"; fail=1; continue; fi; \
		ok=$$(awk -v a="$$pct" -v b="$$floor" 'BEGIN { print (a >= b) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "cover: FAIL $$pkg at $$pct% (floor $$floor%)"; fail=1; \
		else echo "cover: ok $$pkg $$pct% (floor $$floor%)"; fi; \
	done; exit $$fail

# The simulated Figures 5-14 in short windows, each followed by the verdicts
# of its shape claims (perfsim.Claims); a failed claim fails the target.
# Each (benchmark, mix) experiment is simulated once, on GOMAXPROCS workers.
repro:
	$(GO) run ./cmd/repro -quick

# Mirror of .github/workflows/ci.yml for local runs.
ci: lint build race chaos-smoke wal-torture cover repro bench-smoke
