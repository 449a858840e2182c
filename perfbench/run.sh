#!/bin/sh
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments, from the root of the checkout:
#
#	sh perfbench/run.sh --workload paper_suite_4c --seed 7 --seconds 45 --trace 0
#
# Build outputs (the Go build cache and the binary) and the spans of
# traced runs go to .bench_build under the checkout, so nothing is
# written outside it. The build fails,
# and so does this script, when the checkout holds only the benchmark.
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache"
GOPATH="$build/gopath"
GOTOOLCHAIN=local
GOFLAGS=-mod=mod
GOPROXY=off
GOWORK=off
GOENV=off
export GOCACHE GOPATH GOTOOLCHAIN GOFLAGS GOPROXY GOWORK GOENV
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
