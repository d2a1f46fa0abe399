#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the harness from source into
# .bench_build/ in the current checkout — Go's build cache too, so nothing
# is read or written outside the checkout — and runs it with the driver's
# arguments:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# By hand, `go run ./bench` does the same with the default build cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
