#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
#
#   bash benchmark/run.sh --workload sdb-cpu --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache included) stays under
# .bench_build/ in the checkout, so a run reads and writes only inside it.
# The first run in a checkout compiles the standard library too; later
# runs find the binary up to date.
set -euo pipefail
cd "$(dirname "$0")/.."
# The benchmark is a package of the repository's module: without the module
# around it there is nothing to measure.
[ -f go.mod ] || { echo "benchmark/run.sh: no go.mod in $PWD: run from a checkout of the repository" >&2; exit 1; }
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
