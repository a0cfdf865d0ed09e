#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload pmake --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the checkout root: the Go build cache, the binary, and each run's
# provenance, spans and profile.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go -C perfbench build -o "$root/.bench_build/perfbench-bin" .
exec "$root/.bench_build/perfbench-bin" "$@"
