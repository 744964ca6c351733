#!/usr/bin/env bash
# check.sh — the repository's full verify gate.
#
# Runs, in order: formatting, go vet, build, tipsylint (the project's
# own static-analysis suite: determinism, one lock analysis covering
# leaks, lock order and guarded fields, wire-encoder errors, goroutine
# hygiene, metrics, slog, walltime; one invocation), the test suite
# under the race detector with a total-coverage floor, the exact
# allocation pins once without the race detector (the pooled ones skip
# under it), the nested bench module's vet and smoke test, a 15s fuzz
# pass per protocol decoder, for the IPFIX stream reader against its
# two-ReadFull oracle, for the /v1/predict request decoder against its
# encoding/json oracle, for the aggregator against its single-map
# oracle, for the geo fallback rung against its full-sort oracle, for
# the model/checkpoint frame reader, for the checkpoint loader and for
# the diagnostic-bundle manifest reader, and the chaos soak. The
# differential oracles and the bundle round trip are tests, so
# `go test ./...` runs them; it also replays every fuzz seed corpus.
# Everything is stdlib Go; no network access is needed.
#
# Usage: scripts/check.sh [-short]
#   -short  skip the race detector (plain `go test`) and the fuzz
#           passes, for quick loops
set -euo pipefail
cd "$(dirname "$0")/.."

short=0
if [[ "${1:-}" == "-short" ]]; then
    short=1
fi

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> tipsylint -stats ./..."
go run ./cmd/tipsylint -stats ./...

# Total statement coverage must not sink below this floor (the suite
# sits around 79-80%; the floor leaves headroom for refactors without
# letting coverage rot).
coverage_floor=75.0
covprofile=$(mktemp)
trap 'rm -f "$covprofile"' EXIT

if [[ $short -eq 1 ]]; then
    echo "==> go test ./... (short: race detector skipped)"
    go test -count=1 -coverprofile="$covprofile" ./...
else
    echo "==> go test -race -count=1 ./..."
    go test -race -count=1 -coverprofile="$covprofile" ./...
    # Pins that pass through a sync.Pool skip under -race (the pool
    # drops items there by design); run every pin once without it.
    echo "==> allocation pins (without the race detector)"
    go test -count=1 -run 'Allocs$|ZeroAlloc$' \
        ./internal/ipfix ./internal/pipeline ./internal/serve ./cmd/tipsyd
fi

echo "==> coverage floor (>= ${coverage_floor}%)"
total=$(go tool cover -func="$covprofile" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
echo "    total coverage: ${total}%"
awk -v t="$total" -v f="$coverage_floor" 'BEGIN { exit !(t >= f) }' || {
    echo "coverage ${total}% is below the ${coverage_floor}% floor" >&2
    exit 1
}

# bench/ is its own module (root ./... skips it) but imports this
# one's packages, so a refactor here can break it silently.
echo "==> bench module: go vet + go test"
(cd bench && go vet ./... && go test -count=1 ./...)

if [[ $short -eq 0 ]]; then
    echo "==> fuzz quick pass (15s per target)"
    go test -fuzz=FuzzIPFIXDecode -fuzztime=15s -run '^$' ./internal/ipfix
    go test -fuzz=FuzzReadStreamBatch -fuzztime=15s -run '^$' ./internal/ipfix
    go test -fuzz=FuzzBMPDecode -fuzztime=15s -run '^$' ./internal/bmp
    go test -fuzz=FuzzDecodeRequest -fuzztime=15s -run '^$' ./internal/serve
    go test -fuzz=FuzzGeoNearest -fuzztime=15s -run '^$' ./internal/core
    go test -fuzz=FuzzReadFramed -fuzztime=15s -run '^$' ./internal/core
    go test -fuzz=FuzzLoadCheckpoint -fuzztime=15s -run '^$' ./internal/core
    go test -fuzz=FuzzAggregator -fuzztime=15s -run '^$' ./internal/pipeline
    go test -fuzz=FuzzReadManifest -fuzztime=15s -run '^$' ./internal/bundle
fi

echo "==> chaos soak smoke"
go test -run TestChaosSoak -short -count=1 ./internal/chaos

echo "OK"
