#!/bin/sh
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments, from the checkout root. The binary, the Go
# build cache and the compiler's scratch files stay in .bench_build/.
#
#   sh benchmark/run.sh --workload hollow-1000 --seed 1 --seconds 20 --trace 0
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/ibis-bench" .)
cd "$root"
exec "$build/ibis-bench" "$@"
