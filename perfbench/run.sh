#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload call-small --seed 1 --seconds 12 --trace 0
# Run it from the repository root.  The build cache, the binary and the
# run's files stay inside the checkout (.bench_build, .bench_out).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
unset WHT_SIMD
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out .bench_out "$@"
