#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run leave behind stays inside this directory:
# the Go build cache, the toolchain's own counters, the binary and the WAL
# data directories under bench/.build/, the trace files under bench/out/
# (bench/.gitignore names both).
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f go.mod ] || { echo "bench/run.sh: no go.mod beside bench/: the benchmark builds against the repository's own packages" >&2; exit 1; }
build="$PWD/bench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/stackbench" ./bench
exec "$build/stackbench" "$@"
