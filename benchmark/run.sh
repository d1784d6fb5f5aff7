#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload live-small --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and the binary live under .bench_build, traces
# under benchmark/out.
set -euo pipefail

if [ ! -f benchmark/go.mod ] || [ ! -f go.mod ]; then
    echo "benchmark/run.sh: run from the root of a checkout (go.mod and benchmark/go.mod expected)" >&2
    exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # go's telemetry counters go here, not $HOME
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off

go build -C benchmark -o "$build/echelon-benchmark" .
exec "$build/echelon-benchmark" "$@"
