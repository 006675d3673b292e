#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Run it from the root of the repository:
#
#   bash benchmark/run.sh -workload fig2_ga -seed 2000 -seconds 12 -trace 0
#
# The Go build cache, temporary files and the toolchain's telemetry
# counters (kept under the user config directory) stay under
# .bench_build/ too, so a run writes nothing outside the checkout. The
# module needs nothing but the repository, so the build never fetches.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd benchmark && go build -o "$build/nscc-benchmark" .)
exec "$build/nscc-benchmark" "$@"
