#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash svcbench/run.sh --workload small_jobs --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache, the binary, the service's state and journal
# directories, and the run records and span dumps.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/svcbench" && go build -o "$build/svcbench" .)
exec "$build/svcbench" -out "$build/svcbench-out" "$@"
