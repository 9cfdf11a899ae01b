#!/usr/bin/env sh
# Microbenchmark sweep over the hot primitives: chunker cutters,
# fingerprint hashing, kvstore point/batch operations and cold opens
# (WAL replay), the restore cache policies, the L-node ingest/restore
# hand-offs and a streamed first version. BENCHTIME overrides
# the per-benchmark budget (default 1s); check.sh runs this with
# BENCHTIME=1x as a does-it-still-run smoke test.
#
# The ns/op printed here is for reading on one host in one sitting;
# comparing two commits is benchmark/'s job (-compare, alternating pairs;
# benchmark/README.md).
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"

run() {
	go test -run '^$' -bench "$1" -benchtime "$BENCHTIME" "$2"
}

run '^BenchmarkCutters$' ./internal/chunker/
run '^BenchmarkMetaFind$' ./internal/container/
run '^BenchmarkFingerprint$' ./internal/fingerprint/
run '^Benchmark(KVPut|KVGet|KVBatchPut|KVGetMulti)$' ./internal/kvstore/
run '^BenchmarkOpenReplay$' ./internal/kvstore/
run '^BenchmarkRestorePolicies$' ./internal/cache/
run '^Benchmark(IngestHandoff|BackupStreamFirstVersion|HashAllCrossover|RestoreHandoff)$' ./internal/lnode/
