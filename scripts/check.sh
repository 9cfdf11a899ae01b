#!/usr/bin/env sh
# Full verification gate: build, vet, slimlint, the race-enabled test
# suite, and a short-budget fuzz smoke over the committed seed corpora plus
# a few seconds of fresh exploration per target.
# CI and pre-commit both run this; keep it the single source of truth.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Project-invariant static analysis: determinism in simclock-charged
# packages, storage error discipline, context flow. Zero findings is the
# bar; see DESIGN.md §9 for suppression rules.
sh ./scripts/lint.sh
# Leaf mutexes beside the ranked locks (DESIGN.md §9): the lock order is
# checked at run time on maintMu, FileLocks and ContainerLocks only. In the
# packages that can name those (they import core), every other mutex guards
# counters or a flag and is held across no call; their number only shrinks.
leaf=$(grep -rl '"slimstore/internal/core"' --include=*.go . | grep -vE '_test\.go$|^\./benchmark/|/testdata/' |
	xargs -n1 dirname | sort -u | while read -r d; do
		ls "$d"/*.go | grep -v '_test\.go$' | xargs grep -hE 'sync\.(RW)?Mutex' || true
	done | wc -l)
[ "$leaf" -le 7 ] ||
	{ echo "check: $leaf leaf mutexes in packages that import core, want at most 7: rank a new lock or keep it off every call (DESIGN.md §9)" >&2; exit 1; }
# One interposition point on the store (DESIGN.md §6): the types that spell
# out GetRange, and the test types that embed a store to override methods.
[ "$(grep -rhE '^func \([a-z_]+ \*?[A-Za-z_]+\) GetRange\(' --include=*.go . | wc -l)" -le 10 ] &&
	[ "$(grep -rhE '^\s*\*?(oss\.)?(Store|Mem)\s*(//.*)?$|struct\s*\{\s*\*?(oss\.)?(Store|Mem)\s*\}' --include=*_test.go . | wc -l)" -le 8 ] ||
	{ echo "check: too many oss.Store implementations: wrap with oss.With(…) and a Layer instead of forwarding six methods" >&2; exit 1; }

# The product constructs no fault injector (DESIGN.md §6): faults enter
# through the one oss.Faulty a test, or the chaos runner, puts over a store.
if grep -rlw Faulty --include='*.go' . | grep -v '_test\.go$' | grep -qvE '^\./internal/(oss|chaos)/'; then
	echo "check: a non-test file outside internal/oss and internal/chaos names oss.Faulty" >&2
	exit 1
fi

# Every `go test` below also runs the run-time invariant checks (DESIGN.md
# §9) beside the race detector, with nothing to switch on: a ranked lock
# taken out of order panics (internal/lockrank), pooled buffers are
# poisoned on recycle and a second put panics (internal/poison), each
# package's TestMain fails if a goroutine outlives its tests or a ranked
# lock is still held (internal/leakcheck), and the stores under the twin,
# stress and chaos suites are oss.Frozen. The product binaries further
# down (CLI smoke, workload smokes) run without the first three.
go test -race ./...

# The SHA-1 kernel's fallback: on a host with the SHA extensions nothing above
# ran crypto/sha1 behind fingerprint.Of, so run the two packages that hold the
# kernel and the ingest twins once more without it.
go test -count=1 -tags purego ./internal/fingerprint/ ./internal/lnode/

# Scheduler independence: which reads run ahead, which requests a restore
# or a G-node pass issues (its plans and cuts are a function of metas,
# MaintWorkers and Costs), and every counter and twin comparison built on
# that, is a function of the caller's sequence, so it must hold with one P
# (a 2-vCPU runner's worst case) as well as with four.
go test -race -count=1 -cpu 1,4 ./internal/pipe/ ./internal/cache/ ./internal/container/
go test -race -count=1 -cpu 1,4 -run 'Prefetch|ReadAhead|Twin|RestoreKeeps|RestoreFailsWhole' ./internal/lnode/
go test -race -count=1 -cpu 1,4 -run 'CompactSparse|MatchesSerial' ./internal/gnode/

# cmd/slimstore has no Go test: drive every subcommand once against
# directory repositories of three layouts and compare what comes back.
sh ./scripts/cli_smoke.sh

# Microbenchmark smoke: one iteration each, so broken benchmarks fail
# the gate without costing real measurement time.
BENCHTIME=1x sh ./scripts/bench.sh

# Wall-clock benchmark smoke on all four workloads — the two G-node-heavy
# ones, the one that runs jobs.Engine with two racing clients (per-job
# round trips under concurrency — the regime the other two do not reach),
# and sdb-cpu, the free in-memory store whose restores serve bytes that
# alias the store's own memory, where the comparing writer is the
# end-to-end proof that aliased bytes are the right bytes: ~1 s each,
# same phases as a full run, and the benchmark's output checks (comparing
# writer on every restore, Scrub clean, audit before restores, exact
# rep-to-rep counts) fail the gate. The numbers are discarded — a
# performance claim is made through benchmark/run.sh, in alternating pairs
# (benchmark/README.md).
go run ./benchmark -workload sdb-cpu -smoke >/dev/null
go run ./benchmark -workload sdb-cloud -smoke >/dev/null
go run ./benchmark -workload retention-churn -smoke >/dev/null
go run ./benchmark -workload rdata-jobs -smoke >/dev/null

# Fuzz smoke: seed corpora always run as part of `go test`; the short
# -fuzz bursts below look for fresh counterexamples without blocking the
# gate for long. FUZZTIME=0s skips the bursts (corpora still ran above).
FUZZTIME="${FUZZTIME:-5s}"
if [ "$FUZZTIME" != "0s" ]; then
	go test -run=NONE -fuzz='^FuzzPartition$' -fuzztime "$FUZZTIME" ./internal/chunker/
	go test -run=NONE -fuzz='^FuzzStreamSkip$' -fuzztime "$FUZZTIME" ./internal/chunker/
	go test -run=NONE -fuzz='^FuzzRecipeRoundTrip$' -fuzztime "$FUZZTIME" ./internal/recipe/
	go test -run=NONE -fuzz='^FuzzRecipeDecode$' -fuzztime "$FUZZTIME" ./internal/recipe/
	go test -run=NONE -fuzz='^FuzzReplRecord$' -fuzztime "$FUZZTIME" ./internal/kvstore/
	# What index recovery decodes: WAL segments, table tails and blocks, the
	# manifest. Their seeds are whole objects, which the engine would spend
	# the burst minimising byte by byte: one minimisation step each.
	go test -run=NONE -fuzz='^FuzzWALSegment$' -fuzztime "$FUZZTIME" -fuzzminimizetime 1x ./internal/kvstore/
	go test -run=NONE -fuzz='^FuzzSSTable$' -fuzztime "$FUZZTIME" -fuzzminimizetime 1x ./internal/kvstore/
	go test -run=NONE -fuzz='^FuzzManifest$' -fuzztime "$FUZZTIME" -fuzzminimizetime 1x ./internal/kvstore/
	go test -run=NONE -fuzz='^FuzzECDecode$' -fuzztime "$FUZZTIME" ./internal/ec/
	go test -run=NONE -fuzz='^FuzzSHA1Kernel$' -fuzztime "$FUZZTIME" ./internal/fingerprint/
	# Container metadata as decoded, planned and split (whole-object seeds).
	go test -run=NONE -fuzz='^FuzzReadPlan$' -fuzztime "$FUZZTIME" -fuzzminimizetime 1x ./internal/cache/
	# The repository header: the one object every open trusts first.
	go test -run=NONE -fuzz='^FuzzDecodeHeader$' -fuzztime "$FUZZTIME" ./internal/core/
	# What the object server parses off the wire: method, path, Range header.
	go test -run=NONE -fuzz='^FuzzServerRequest$' -fuzztime "$FUZZTIME" ./internal/oss/
fi
