#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload cold_tune --seed 1 --seconds 10 --trace 0
#
# Builds ./benchmark with the Go toolchain and runs the binary with the
# arguments given. Everything the build writes (build cache, temporary files,
# the toolchain's own counters) is kept under .bench_build in the checkout;
# everything a run writes goes to benchmark/out.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# With telemetry in its default mode the go command detaches a child of its
# own, in a session of its own, that outlives the build. Switch it off in the
# configuration directory above, so nothing is running once this script ends.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/locat-benchmark" ./benchmark
exec "$build/locat-benchmark" "$@"
