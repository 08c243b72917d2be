#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload broad-large --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
