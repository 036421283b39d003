#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload engine --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 10 --workload routed --seconds 10
#
# Build cache, temporary files, store data directories and trace output all
# stay under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp" "$work/gomodcache"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOMODCACHE="$work/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
cd "$root/perfbench"
exec go run . --workdir "$work" --benchmark-json "$root/BENCHMARK.json" "$@"
