#!/usr/bin/env bash
# Builds the service benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash bench/run.sh --workload cold-exact --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
