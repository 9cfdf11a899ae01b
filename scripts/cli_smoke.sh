#!/usr/bin/env sh
# End-to-end smoke of cmd/slimstore against directory repositories of three
# layouts — the default (created by the first backup), an erasure-coded one
# and a two-shard one (created by init): every subcommand runs once against
# each with -repo alone, restores are compared byte for byte, and any
# non-zero exit or mismatch fails. scripts/check.sh calls this after the
# race suite; it takes a few seconds.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/slimstore" ./cmd/slimstore
s="$tmp/slimstore"

# Two versions of one file: the second is the first with a few bytes changed.
head -c 3000000 /dev/urandom >"$tmp/v0.bin"
cp "$tmp/v0.bin" "$tmp/v1.bin"
printf 'changed' | dd of="$tmp/v1.bin" bs=1 seek=1500000 conv=notrunc 2>/dev/null

positive() { # positive <label> : the stats line "<label> N bytes" has N > 0
	n=$(sed -n "s/^$1 *\([0-9][0-9]*\) bytes\$/\1/p" "$out/stats.txt")
	[ -n "$n" ] && [ "$n" -gt 0 ] || { echo "cli_smoke: stats '$1' not positive:" >&2; cat "$out/stats.txt" >&2; exit 1; }
}

# drive <name> <layout>: every subcommand against $tmp/<name>; stats must
# print <layout>.
drive() {
	repo="-repo dir:$tmp/$1"
	out="$tmp/$1.out"
	mkdir -p "$out"
	$s backup $repo -file "$tmp/v0.bin" -as doc
	$s backup $repo -file "$tmp/v1.bin" -as doc
	$s restore $repo -name doc -version 0 -out "$out/r0.bin"
	$s restore $repo -name doc -out "$out/r1.bin"
	cmp "$tmp/v0.bin" "$out/r0.bin"
	cmp "$tmp/v1.bin" "$out/r1.bin"

	# restore is atomic at -out: a version that does not exist, restored over
	# the output just verified, fails, leaves that file as it was and leaves no
	# partial file beside it.
	if $s restore $repo -name doc -version 7 -out "$out/r1.bin" 2>/dev/null; then
		echo "cli_smoke: restore of a missing version exited 0" >&2
		exit 1
	fi
	cmp "$tmp/v1.bin" "$out/r1.bin"
	if ls "$out" | grep -q '\.partial-'; then
		echo "cli_smoke: a failed restore left its partial file behind:" >&2
		ls "$out" >&2
		exit 1
	fi

	# A directory snapshot through the job engine, restored three wide.
	mkdir -p "$tmp/tree/sub"
	head -c 400000 /dev/urandom >"$tmp/tree/a.bin"
	head -c 300000 /dev/urandom >"$tmp/tree/sub/b.bin"
	cp "$tmp/v1.bin" "$tmp/tree/sub/c.bin"
	$s snapshot $repo -dir "$tmp/tree" -id s1 -jobs 3
	$s restore-snapshot $repo -id s1 -out "$out/tree.out" -jobs 3
	diff -r "$tmp/tree" "$out/tree.out"
	$s snapshots $repo | grep -q '^s1: 3 files'

	$s verify $repo -name doc -jobs 2
	$s list $repo | grep -q '^doc: versions \[0 1\]'
	$s delete $repo -name doc -version 0
	$s gc $repo
	$s scrub $repo
	$s restore $repo -name doc -out "$out/r1b.bin"
	cmp "$tmp/v1.bin" "$out/r1b.bin"

	$s stats $repo >"$out/stats.txt"
	positive total:
	positive containers:
	# Which SHA-1 this host fingerprints with (internal/fingerprint's dispatch).
	grep -Eq '^sha1 kernel: (sha-ni|crypto/sha1)$' "$out/stats.txt" || { echo "cli_smoke: stats names no sha1 kernel:" >&2; cat "$out/stats.txt" >&2; exit 1; }
	# The global index's engine counters: entries it holds, and how this process
	# found and left its WAL (commits sync it; they do not flush).
	grep -Eq '^global index: [1-9][0-9]* entries, [0-9]+ tables, [0-9]+ wal segments \([0-9]+ replayed at open\), [0-9]+ syncs, [0-9]+ flushes, [0-9]+ compactions$' "$out/stats.txt" || { echo "cli_smoke: stats has no global index line:" >&2; cat "$out/stats.txt" >&2; exit 1; }
	# Every command before it closed the index: this open replayed nothing.
	grep -Eq '^global index: .*\(0 replayed at open\)' "$out/stats.txt" || { echo "cli_smoke: stats' open replayed the index log: a command before it did not close the index:" >&2; cat "$out/stats.txt" >&2; exit 1; }
	grep -Fq "$2" "$out/stats.txt" || { echo "cli_smoke: stats of $1 does not print '$2':" >&2; cat "$out/stats.txt" >&2; exit 1; }
}

# A first backup against an empty location creates a default-layout repository.
drive repo 'shards=1 replicas=1 ec-data=0 ec-parity=0'

# init records the layout; no later command names it.
$s init -repo "dir:$tmp/repo-ec" -ec-data 2 -ec-parity 1
drive repo-ec 'shards=1 replicas=1 ec-data=2 ec-parity=1'
ls "$tmp/repo-ec/ec" >/dev/null # the containers are striped
$s init -repo "dir:$tmp/repo-sh" -shards 2
drive repo-sh 'shards=2 replicas=1 ec-data=0 ec-parity=0'
ls "$tmp/repo-sh/gidx/s1" >/dev/null

# init is idempotent with equal (or no) values and names the field otherwise.
$s init -repo "dir:$tmp/repo-ec" -ec-data 2 -ec-parity 1 >/dev/null
$s init -repo "dir:$tmp/repo-ec" >/dev/null
if $s init -repo "dir:$tmp/repo-ec" -ec-data 4 2>"$tmp/err.txt"; then
	echo "cli_smoke: init with a different -ec-data exited 0" >&2
	exit 1
fi
grep -q 'repository has ECDataShards=2, opened with ECDataShards=4' "$tmp/err.txt" || { echo "cli_smoke: init mismatch does not name the field:" >&2; cat "$tmp/err.txt" >&2; exit 1; }

# The layout flags exist on init alone: anywhere else they are unknown flags.
set +e
$s backup -repo "dir:$tmp/repo-sh" -shards 2 -file "$tmp/v0.bin" -as doc 2>/dev/null
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "cli_smoke: backup -shards 2 exited $rc, want 2 (unknown flag)" >&2; exit 1; }

echo "cli_smoke: ok"
