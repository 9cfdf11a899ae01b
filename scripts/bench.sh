#!/usr/bin/env sh
# Microbenchmark sweep over the hot primitives: chunker cutters,
# fingerprint hashing, kvstore point/batch operations, the restore cache
# policies, and the L-node ingest/restore hand-offs. BENCHTIME overrides
# the per-benchmark budget (default 1s); check.sh runs this with
# BENCHTIME=1x as a does-it-still-run smoke test.
#
# After the sweep, results are diffed against the committed baseline in
# scripts/bench_baseline.txt (recorded on the development host). The
# comparison is informational — wall times are host-dependent — so it
# prints a delta table and never fails the run. Refresh the baseline
# with: BENCH_BASELINE_WRITE=1 sh scripts/bench.sh
#
# Whole-system numbers (throughput scaling, maintenance wall clock) live
# in cmd/slimbench, not here.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

run() {
	go test -run '^$' -bench "$1" -benchtime "$BENCHTIME" "$2" | tee -a "$OUT"
}

run '^BenchmarkCutters$' ./internal/chunker/
run '^BenchmarkMetaFind$' ./internal/container/
run '^BenchmarkFingerprint$' ./internal/fingerprint/
run '^Benchmark(KVPut|KVGet|KVBatchPut|KVGetMulti)$' ./internal/kvstore/
run '^BenchmarkRestorePolicies$' ./internal/cache/
run '^Benchmark(IngestHandoff|HashAllCrossover|RestoreHandoff)$' ./internal/lnode/

# Baseline compare: ns/op against scripts/bench_baseline.txt, joined on
# benchmark name (GOMAXPROCS suffix stripped). Informational only.
BASE="scripts/bench_baseline.txt"
if [ "${BENCH_BASELINE_WRITE:-0}" = "1" ]; then
	grep '^Benchmark' "$OUT" > "$BASE"
	echo "wrote $BASE"
	exit 0
fi
if [ -f "$BASE" ]; then
	echo ""
	echo "== baseline compare (informational; baseline: $BASE) =="
	awk '
		/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			if (NR == FNR) { base[name] = $3; next }
			if (name in base && base[name] > 0)
				printf "%-44s %14.0f %14.0f %+8.1f%%\n", name, base[name], $3, ($3 - base[name]) / base[name] * 100
			else
				printf "%-44s %14s %14.0f    (new)\n", name, "-", $3
		}
		END {
			if (NR == FNR) print "(baseline has no Benchmark lines)"
		}
	' "$BASE" "$OUT" | { echo "benchmark                                       baseline ns/op  current ns/op    delta"; cat; }
fi
