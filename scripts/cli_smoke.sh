#!/usr/bin/env sh
# End-to-end smoke of cmd/slimstore against a directory repository: every
# subcommand runs once, restores are compared byte for byte, and any
# non-zero exit or mismatch fails. scripts/check.sh calls this after the
# race suite; it takes a couple of seconds.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/slimstore" ./cmd/slimstore
s="$tmp/slimstore"
repo="-repo dir:$tmp/repo"

# Two versions of one file: the second is the first with a few bytes changed.
head -c 3000000 /dev/urandom >"$tmp/v0.bin"
cp "$tmp/v0.bin" "$tmp/v1.bin"
printf 'changed' | dd of="$tmp/v1.bin" bs=1 seek=1500000 conv=notrunc 2>/dev/null

$s backup $repo -file "$tmp/v0.bin" -as doc
$s backup $repo -file "$tmp/v1.bin" -as doc
$s restore $repo -name doc -version 0 -out "$tmp/r0.bin"
$s restore $repo -name doc -out "$tmp/r1.bin"
cmp "$tmp/v0.bin" "$tmp/r0.bin"
cmp "$tmp/v1.bin" "$tmp/r1.bin"

# restore is atomic at -out: a version that does not exist, restored over
# the output just verified, fails, leaves that file as it was and leaves no
# partial file beside it.
if $s restore $repo -name doc -version 7 -out "$tmp/r1.bin" 2>/dev/null; then
	echo "cli_smoke: restore of a missing version exited 0" >&2
	exit 1
fi
cmp "$tmp/v1.bin" "$tmp/r1.bin"
if ls "$tmp" | grep -q '\.partial-'; then
	echo "cli_smoke: a failed restore left its partial file behind:" >&2
	ls "$tmp" >&2
	exit 1
fi

# A directory snapshot through the job engine, restored three wide.
mkdir -p "$tmp/tree/sub"
head -c 400000 /dev/urandom >"$tmp/tree/a.bin"
head -c 300000 /dev/urandom >"$tmp/tree/sub/b.bin"
cp "$tmp/v1.bin" "$tmp/tree/sub/c.bin"
$s snapshot $repo -dir "$tmp/tree" -id s1 -jobs 3
$s restore-snapshot $repo -id s1 -out "$tmp/tree.out" -jobs 3
diff -r "$tmp/tree" "$tmp/tree.out"
$s snapshots $repo | grep -q '^s1: 3 files'

$s verify $repo -name doc -jobs 2
$s list $repo | grep -q '^doc: versions \[0 1\]'
$s delete $repo -name doc -version 0
$s gc $repo
$s scrub $repo
$s restore $repo -name doc -out "$tmp/r1b.bin"
cmp "$tmp/v1.bin" "$tmp/r1b.bin"

positive() { # positive <label> : the stats line "<label> N bytes" has N > 0
	n=$(sed -n "s/^$1 *\([0-9][0-9]*\) bytes\$/\1/p" "$tmp/stats.txt")
	[ -n "$n" ] && [ "$n" -gt 0 ] || { echo "cli_smoke: stats '$1' not positive:" >&2; cat "$tmp/stats.txt" >&2; exit 1; }
}
$s stats $repo >"$tmp/stats.txt"
positive total:
# Which SHA-1 this host fingerprints with (internal/fingerprint's dispatch).
grep -Eq '^sha1 kernel: (sha-ni|crypto/sha1)$' "$tmp/stats.txt" || { echo "cli_smoke: stats names no sha1 kernel:" >&2; cat "$tmp/stats.txt" >&2; exit 1; }
# The global index's engine counters: entries it holds, and how this process
# found and left its WAL (commits sync it; they do not flush).
grep -Eq '^global index: [1-9][0-9]* entries, [0-9]+ tables, [0-9]+ wal segments \([0-9]+ replayed at open\), [0-9]+ syncs, [0-9]+ flushes, [0-9]+ compactions$' "$tmp/stats.txt" || { echo "cli_smoke: stats has no global index line:" >&2; cat "$tmp/stats.txt" >&2; exit 1; }

# Erasure-coded tier: the containers live under ec/, and stats must see them.
ec="-repo dir:$tmp/repo-ec -ec-data 2 -ec-parity 1"
$s backup $ec -file "$tmp/v0.bin" -as doc
$s stats $ec >"$tmp/stats.txt"
positive containers:

echo "cli_smoke: ok"
