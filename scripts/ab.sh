#!/usr/bin/env bash
# Alternating pairs: the wall-clock benchmark of a parent commit against this
# checkout, on one workload (benchmark/README.md, "performance claims").
#
#   bash scripts/ab.sh <parent-ref> <workload> [pairs]     # pairs: 10
#
# The parent runs from a git worktree of <parent-ref> in a temporary
# directory (removed on exit), this side from the checkout's working tree.
# Pair i runs `bash benchmark/run.sh --workload W --seed i --seconds 25
# --out …` on both sides, one run at a time: the parent first on odd seeds,
# this tree first on even ones. The result sets are parent.jsonl and
# this.jsonl in $AB_OUT (a new temporary directory when unset), and the
# script ends with `benchmark -compare` over the two, whose exit code it
# returns. Nothing else should load the host meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 2 ] && [ $# -le 3 ] || { echo "usage: bash scripts/ab.sh <parent-ref> <workload> [pairs]" >&2; exit 2; }
ref=$1 workload=$2 pairs=${3:-10}
tmp=$(mktemp -d)
parent="$tmp/parent"
trap 'git worktree remove --force "$parent" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --detach --quiet "$parent" "$ref"
out=${AB_OUT:-$(mktemp -d)}
mkdir -p "$out"

# run <checkout> <set> <seed>: one benchmark run, its result appended to the set.
run() {
	echo "ab: $workload seed $3: $2" >&2
	bash "$1/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds 25 --out "$out/$2.jsonl" >/dev/null
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run "$parent" parent "$i"
		run "$PWD" this "$i"
	else
		run "$PWD" this "$i"
		run "$parent" parent "$i"
	fi
done
echo "ab: result sets in $out" >&2
"$PWD/.bench_build/benchmark" -compare "$out/parent.jsonl" "$out/this.jsonl"
