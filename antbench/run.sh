#!/usr/bin/env bash
# Entry point of the repository benchmark described by BENCHMARK.json. Run it
# from the root of an antsearch checkout:
#
#   bash antbench/run.sh --workload tiny-grid --seed 1 --seconds 10 --trace 0
#
# It builds antserve, antexperiments and the harness from the tree under test
# into .bench_build/ (Go's build cache included, so nothing is written outside
# the checkout) and hands its arguments to the harness, whose last line of
# standard output is the JSON result.
set -eu

if [ ! -f go.mod ] || [ ! -d cmd/antserve ] || [ ! -d cmd/antexperiments ]; then
	echo "antbench: run from the root of an antsearch checkout (go.mod and cmd/ not found)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/work"
# Every directory the go command writes to, its telemetry counters under the
# user config directory included, lives in the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/antserve ./cmd/antexperiments
(cd antbench && go build -o "$build/bin/antbench" .)
exec "$build/bin/antbench" -bin "$build/bin" -work "$build/work" "$@"
