#!/usr/bin/env bash
# check.sh — the repository's full verify gate.
#
# Runs, in order: formatting, go vet, build, tipsylint (the project's
# own static-analysis suite: determinism, wire-encoder errors,
# goroutine hygiene, metrics, slog; no flags; it runs right after go
# build, so the export data it loads dependencies from is already in
# the build cache), the test suite under the race detector (with go
# vet's copylocks, it holds the lock discipline) with a
# total-coverage floor, the exact
# allocation pins and the shortest-float kernel's random sweep once
# without the race detector (both skip under it), the nested bench
# module's vet, tipsylint and smoke test, a 15s fuzz pass for the IPFIX decoder,
# for the IPFIX stream reader against its two-ReadFull oracle, for the /v1/predict request decoder against its
# encoding/json oracle, for the answer's shortest-float kernel against
# strconv, for the aggregator against its single-map
# oracle, for the shared interning index (features.Index) against a
# Go map, for the §4.2 encoder against its every-record-through-the-
# dictionaries oracle, for tipsyd's daily window rows
# (dataset.DailyRows) against a Go-map oracle, for the geo fallback
# rung against its full-sort
# oracle, for the model/checkpoint frame reader, for the checkpoint
# loader and for the diagnostic-bundle manifest reader, the results
# gate (the full-scale experiments run, its timing text stripped,
# diffed against results/full_seed1.txt; about 3 min on 2 CPUs), one
# pass of the root package's cost, retrain and substrate benchmarks
# (about 35 s; they must run, their timings are not gated), the
# README's command-line workflow with built binaries followed by
# tipsyd recovering the checkpoint `tipsy train` wrote (about 5 s),
# and the chaos soak. The
# differential oracles and the bundle round trip are tests, so
# `go test ./...` runs them; it also replays every fuzz seed corpus.
# Everything is stdlib Go; no network access is needed.
#
# Usage: scripts/check.sh [-short]
#   -short  skip the race detector (plain `go test`), the fuzz passes,
#           the results gate, the root benchmarks and the command-line
#           workflow, for quick loops
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

echo "==> tipsylint ./..."
go run ./cmd/tipsylint ./...

# Total statement coverage must not sink below this floor (the suite
# sits around 85.8% under -race; the floor leaves headroom for
# refactors without letting coverage rot).
coverage_floor=80.0
covprofile=$(mktemp)
trap 'rm -f "$covprofile"' EXIT

if [[ $short -eq 1 ]]; then
    echo "==> go test ./... (short: race detector skipped)"
    go test -count=1 -coverprofile="$covprofile" ./...
else
    echo "==> go test -race -count=1 ./..."
    go test -race -count=1 -coverprofile="$covprofile" ./...
    # Pins that pass through a sync.Pool skip under -race (the pool
    # drops items there by design), and so does the shortest-float
    # kernel's 10 M-value sweep (minutes there, single-goroutine);
    # run every pin and the sweep once without it.
    echo "==> allocation pins and the float sweep (without the race detector)"
    go test -count=1 -run 'Allocs$|ZeroAlloc$|^TestAppendFloatMatchesStrconv$' \
        ./internal/ipfix ./internal/pipeline ./internal/dataset ./internal/core ./internal/serve ./internal/monitor ./cmd/tipsyd
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
echo "==> bench module: go vet + tipsylint + go test"
(cd bench && go vet ./... && go run tipsy/cmd/tipsylint ./... && go test -count=1 ./...)

if [[ $short -eq 0 ]]; then
    echo "==> fuzz quick pass (15s per target)"
    go test -fuzz=FuzzIPFIXDecode -fuzztime=15s -run '^$' ./internal/ipfix
    go test -fuzz=FuzzReadStreamBatch -fuzztime=15s -run '^$' ./internal/ipfix
    go test -fuzz=FuzzDecodeRequest -fuzztime=15s -run '^$' ./internal/serve
    go test -fuzz=FuzzAppendFloat -fuzztime=15s -run '^$' ./internal/serve
    go test -fuzz=FuzzGeoNearest -fuzztime=15s -run '^$' ./internal/core
    go test -fuzz=FuzzReadFramed -fuzztime=15s -run '^$' ./internal/core
    go test -fuzz=FuzzLoadCheckpoint -fuzztime=15s -run '^$' ./internal/core
    go test -fuzz=FuzzAggregator -fuzztime=15s -run '^$' ./internal/pipeline
    go test -fuzz=FuzzIndex -fuzztime=15s -run '^$' ./internal/features
    go test -fuzz=FuzzEncode -fuzztime=15s -run '^$' ./internal/pipeline
    go test -fuzz=FuzzDailyRows -fuzztime=15s -run '^$' ./internal/dataset
    go test -fuzz=FuzzReadManifest -fuzztime=15s -run '^$' ./internal/bundle
fi

if [[ $short -eq 0 ]]; then
    # Every table and figure in EXPERIMENTS.md comes from this run; a
    # change that moves a number must commit the new results/ with it.
    echo "==> results gate: experiments -scale full -run all vs results/full_seed1.txt"
    results=$(mktemp)
    trap 'rm -f "$covprofile" "$results"' EXIT
    go run ./cmd/experiments -scale full -run all > "$results"
    strip_timing() { sed -e 's/, built in [^,]*$//' -e '/^\[.* done in .*\]$/d' "$1"; }
    if ! diff <(strip_timing results/full_seed1.txt) <(strip_timing "$results"); then
        echo "experiments output differs from results/full_seed1.txt (timing text aside)" >&2
        exit 1
    fi

    # The cost benchmarks measure what no experiment prints; one
    # iteration each keeps them compiling and running.
    echo "==> root benchmarks, one iteration each"
    go test -count=1 -run '^$' -bench . -benchtime 1x .
fi

if [[ $short -eq 0 ]]; then
    # The README's command-line workflow with built binaries, then
    # tipsyd serving the checkpoint `tipsy train` wrote: it must
    # recover it, skip its bootstrap and leave the file as it was.
    echo "==> command-line workflow and tipsyd recovering its checkpoint"
    cli=$(mktemp -d)
    daemon=""
    trap '[[ -n "$daemon" ]] && kill "$daemon" 2>/dev/null; rm -rf "$covprofile" "$results" "$cli"' EXIT
    go build -o "$cli/tipsy" ./cmd/tipsy
    go build -o "$cli/tipsyd" ./cmd/tipsyd
    (
        cd "$cli"
        ./tipsy simulate -seed 1 -days 11 -o telemetry.tipsy
        ./tipsy info     -i telemetry.tipsy -sample 3
        ./tipsy train    -i telemetry.tipsy -to-hour 192 -o model.tipsy
        ./tipsy predict  -i telemetry.tipsy -model model.tipsy \
                         -src 11.1.214.7 -as 100 -region 64 -svc 1 -exclude 35
        ./tipsy eval     -i telemetry.tipsy -train-days 8
    )
    sum=$(sha256sum "$cli/model.tipsy")
    "$cli/tipsyd" -listen 127.0.0.1:0 -day-every 1h -checkpoint "$cli/model.tipsy" \
        -bundle-dir "" > "$cli/tipsyd.log" 2>&1 &
    daemon=$!
    for _ in $(seq 300); do
        grep -q "tipsyd listening" "$cli/tipsyd.log" && break
        kill -0 "$daemon" 2>/dev/null || break
        sleep 0.1
    done
    if ! grep -q "tipsyd listening" "$cli/tipsyd.log" ||
        ! grep -q "recovered checkpoint" "$cli/tipsyd.log" ||
        [[ "$(sha256sum "$cli/model.tipsy")" != "$sum" ]]; then
        echo "tipsyd did not serve the checkpoint tipsy train wrote unchanged:" >&2
        cat "$cli/tipsyd.log" >&2
        exit 1
    fi
    kill "$daemon"
    wait "$daemon" || true
    daemon=""
fi

echo "==> chaos soak smoke"
go test -run TestChaosSoak -short -count=1 ./internal/chaos

echo "OK"
