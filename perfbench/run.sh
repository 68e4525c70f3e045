#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through. Run from the repository root:
#
#   bash perfbench/run.sh --workload zone-sweep --seed 1 --seconds 15 --trace 0
#
# Build cache, temporary files, the binary, per-run state and result
# records all stay under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
