#!/usr/bin/env sh
# Full verification gate: build, vet, slimlint, the race-enabled test
# suite, and a short-budget fuzz smoke over the committed seed corpora plus
# a few seconds of fresh exploration per target.
# CI and pre-commit both run this; keep it the single source of truth.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The alternating-pairs script is run by hand, not here: parse it only.
sh -n scripts/ab.sh

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

# One reader of container state (DESIGN.md §6): a set of metas is read
# through core.Repo.ReadMetas and a recipe's records are resolved through
# core.Repo.Resolve, which take only a meta not found for a container gone.
# The G-node and L-node keep their few single-meta reads; a new private
# reader fails here.
metareads=$(ls internal/gnode/*.go internal/lnode/*.go | grep -v '_test\.go$' | xargs grep -o '\.ReadMeta(' | wc -l)
[ "$metareads" -le 6 ] ||
	{ echo "check: $metareads .ReadMeta( call sites in internal/gnode and internal/lnode, want at most 6: read metas through core.Repo.ReadMetas or Resolve (DESIGN.md §6)" >&2; exit 1; }

# One writer of an existing container's meta (DESIGN.md §6): a mark or a
# switch goes through container.Store.UpdateMeta, which puts what it applies
# to the meta current at the put; WriteMeta is left to the container package
# and to an L-node's commit of the containers it packed.
if grep -rl '\.WriteMeta(' --include='*.go' . | grep -vE '_test\.go$|^\./internal/container/|^\./internal/lnode/backup\.go$' | grep -q .; then
	echo "check: a non-test file outside internal/container and internal/lnode/backup.go calls .WriteMeta(: update an existing meta through container.Store.UpdateMeta" >&2
	exit 1
fi

# One payload writer (DESIGN.md §6): container.Store.WritePayload's one put site puts every data object.
dataputs=$(grep -rnE '\.Put\((container\.)?(DataKey|PartKey)\(' --include='*.go' . | grep -v '_test\.go:' || true)
if echo "$dataputs" | grep -v '^\./internal/container/store\.go:' | grep -q . || [ "$(echo "$dataputs" | grep -c '^\./internal/container/store\.go:')" -gt 1 ]; then
	printf 'check: a data object is put outside container.Store.WritePayload, or store.go puts one at more than one site:\n%s\n' "$dataputs" >&2
	exit 1
fi

# A restore takes no file lock (DESIGN.md §7): it reads one atomic recipe
# and pins what that resolves to, so the restore path never names one.
if grep -lE 'repo\.Files\b' internal/lnode/restore*.go internal/cache/*.go | grep -q .; then
	echo "check: internal/lnode/restore*.go or internal/cache names repo.Files: a restore takes no file lock" >&2
	exit 1
fi

# One STEP-2 body (DESIGN.md §13): a backup cuts, fingerprints and probes in
# one loop, and the L-node starts no goroutine of its own; what it runs
# concurrently goes through internal/pipe and container.PackPool.
if ls internal/lnode/*.go | grep -v '_test\.go$' | xargs grep -nE '(^|[;{])[[:space:]]*go[[:space:]]+(func|[A-Za-z_][A-Za-z0-9_.]*[(])'; then
	echo "check: a non-test file in internal/lnode has a go statement: run concurrent work through pipe or container.PackPool" >&2
	exit 1
fi

# The product constructs no fault injector (DESIGN.md §6): faults enter
# through the one oss.Faulty a test, or the chaos runner, puts over a store.
if grep -rlw Faulty --include='*.go' . | grep -v '_test\.go$' | grep -qvE '^\./internal/(oss|chaos)/'; then
	echo "check: a non-test file outside internal/oss and internal/chaos names oss.Faulty" >&2
	exit 1
fi

# One crash harness (DESIGN.md §9): a crash-at-every-mutation loop runs
# through oss.CrashAtEvery, which clones the baseline per crash point and
# holds every run it cut to ErrInjected; no test builds a loop of its own.
if grep -rlE 'oss\.CrashAfter\(|func cloneMem\(' --include='*_test.go' . | grep -qvE '^\./internal/oss/'; then
	echo "check: a test outside internal/oss calls oss.CrashAfter or defines cloneMem: crash loops go through oss.CrashAtEvery" >&2
	exit 1
fi

# One fingerprint filter (DESIGN.md §8): a global index lookup is answered
# by kvstore's per-table key filters; the counting filter in internal/cbf
# belongs to the full-vision restore cache alone.
if grep -rl '"slimstore/internal/cbf"' --include='*.go' . | grep -qvE '^\./internal/cache/'; then
	echo "check: a package other than internal/cache imports internal/cbf: the global index keeps no filter of its own" >&2
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
# kernel and the backup twins once more without it.
go test -count=1 -tags purego ./internal/fingerprint/ ./internal/lnode/

# Scheduler independence: which reads run ahead, which requests a restore
# or a G-node pass issues (its plans and cuts are a function of metas,
# MaintWorkers and Costs), and every counter and twin comparison built on
# that, is a function of the caller's sequence, so it must hold with one P
# (a 2-vCPU runner's worst case) as well as with four.
go test -race -count=1 -cpu 1,4 ./internal/pipe/ ./internal/cache/ ./internal/container/
go test -race -count=1 -cpu 1,4 -run 'Prefetch|ReadAhead|Twin|RestoreKeeps|RestoreFailsWhole' ./internal/lnode/
go test -race -count=1 -cpu 1,4 -run 'CompactSparse|MatchesSerial' ./internal/gnode/
# A restore accepts its first resolution pass only while no container write
# section has ended since it began: a rewrite under the first pass forces
# the second, deletion marks do not. It takes no file lock: it completes
# beside a held backup of its file, and a deletion of its version either
# waits for its pins or leaves it a deleted version (DESIGN.md §7). A
# backup opens the base its handle's similarity mirror guesses beside the
# catalog listing, and a guess the listing overrules leaves no trace; a
# payload's parts are put together, and no meta put begins before the last
# of them has returned (DESIGN.md §13).
go test -race -count=20 -cpu 1,4 -run 'TestPinFallsBackAfterRewrite|TestPinAcceptsFirstPassUnderMarks|TestRestoreRacingDeletionOfItsVersion|TestRestoreRunsBesideBackupOfSameFile|TestOpenBaseWave|TestStaleGuessMatchesColdHandle|TestPayloadPartsWave' ./internal/lnode/ ./internal/jobs/
# The shared cache's only concurrency, singleflight and invalidation (DESIGN.md §10), under the same repeated race run.
go test -race -count=20 -cpu 1,4 -run 'TestShared|TestConcurrentOverlappingRestoresShareFetches|TestRestoreAfterInvalidationRefetches' ./internal/cache/ ./internal/jobs/
# Store bytes at G-node widths -1 and 4, plain and striped, payloads in
# parts among them: the rewrites' fresh payload IDs are drawn in container
# order, whatever the scheduler does.
go test -count=3 -cpu 1,4 -run 'StoreBytesTwin' .
# A chaos seed replays one schedule at one P and at four: which mutation a
# crash cuts does not depend on how a backup's puts race (~15 s; under
# -race the same line takes ~200 s, so it runs without).
go test -count=3 -cpu 1,4 -run SameSeedSameSchedule ./internal/chaos/

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
	# The catalog entry, which commits a version, and the segment reader
	# over a recipe's prefix (whole-object seeds).
	go test -run=NONE -fuzz='^FuzzCatalogDecode$' -fuzztime "$FUZZTIME" -fuzzminimizetime 1x ./internal/recipe/
	go test -run=NONE -fuzz='^FuzzSegmentReader$' -fuzztime "$FUZZTIME" -fuzzminimizetime 1x ./internal/recipe/
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
	# A container's meta and data object as a read decodes, splits and
	# verifies them (the v3 and v4 goldens are the seeds).
	go test -run=NONE -fuzz='^FuzzContainerDecode$' -fuzztime "$FUZZTIME" -fuzzminimizetime 1x ./internal/container/
	# The repository header: the one object every open trusts first.
	go test -run=NONE -fuzz='^FuzzDecodeHeader$' -fuzztime "$FUZZTIME" ./internal/core/
	# What the object server parses off the wire: method, path, Range header.
	go test -run=NONE -fuzz='^FuzzServerRequest$' -fuzztime "$FUZZTIME" ./internal/oss/
fi
