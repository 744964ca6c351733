#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload:
#
#   bash bench/run.sh --workload serve_whatif --seed 1 --seconds 24 --trace 0
#
# Everything the toolchain writes (build cache, binaries) and
# everything a run writes (daemon logs, traces) lands in bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$PWD/bench/out
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
