#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash txnbench/run.sh --workload hot-contention --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/txnbench" && go build -o "$out/txnbench" .)
exec "$out/txnbench" "$@"
