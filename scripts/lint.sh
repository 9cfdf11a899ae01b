#!/usr/bin/env sh
# slimlint entry point: the project-invariant static analyzer (lock
# order, determinism, error discipline, context flow). Takes packages,
# no flags; with none it lints the whole module. Exits nonzero on any
# finding; see DESIGN.md §9 for the invariants, for what is checked at run
# time instead, and for the suppression syntax.
set -eu
cd "$(dirname "$0")/.."
go run ./cmd/slimlint "$@"
