#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload broadcast-sim --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, cache and run
# artifact goes under .bench_build/.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/perfbench"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" -out "$build/perfbench" "$@"
