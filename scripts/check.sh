#!/usr/bin/env bash
# Pre-PR gate: static checks, race-detector runs of the packages the
# parallel engine and observability layer touch, and a timed quick-scale
# paperbench run whose manifest seeds the performance trajectory. The
# previous run's checked-in BENCH baselines are stashed before
# regeneration and diffed against the fresh artifacts with cmd/obsdiff,
# so counter drift and catastrophic slowdowns fail the gate. Run from the
# repository root before sending a change; the full suite is
# `go test ./...`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== lintdoc (package + exported-symbol docs)"
go run scripts/lintdoc.go

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race (worker pool + observability + robustness packages)"
# internal/core under -race runs ~10 min on a 1-core container; give it
# headroom beyond go test's default 10m timeout.
# internal/telemetry is in the list because its standard counter-set
# template is shared by every goroutine that decodes a firmware image.
go test -race -timeout 25m ./internal/parallel/... ./internal/dataset/... ./internal/obs/... \
    ./internal/fault/... ./internal/mcu/... ./internal/core/... ./internal/fleet/... \
    ./internal/ctrlplane/... ./internal/telemetry/... ./cmd/obsdiff/...

echo "== fuzz firmware-image loading (FuzzLoadController, 10s)"
# Both load paths must return a controller or an error for any bytes; the
# seed corpus lives in internal/core/testdata/fuzz/FuzzLoadController.
# Minimising each new input may otherwise take up to a minute, which would
# leave the 10s budget no time to fuzz.
go test -run '^$' -fuzz '^FuzzLoadController$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core/

# Stash the checked-in baselines before the steps below regenerate the
# BENCH files in place; obsdiff compares fresh against stashed at the end.
baseline_dir=$(mktemp -d)
trap 'rm -rf "$baseline_dir"' EXIT
for f in BENCH_uarch.json BENCH_paperbench.json BENCH_paperbench_results.json BENCH_surrogate.json BENCH_ctrlplane.json BENCH_ctrlplane_churn.json; do
    [ -f "$f" ] && cp "$f" "$baseline_dir/$f"
done

echo "== uarch Execute benchmark (BENCH_uarch.json)"
# Custom metrics (instrs/s, ns/instr) come from the bench harness itself;
# -benchtime counts iterations, not seconds, so the step stays fast and the
# recorded numbers are comparable run to run on the same host.
go test -run '^$' -bench 'BenchmarkUarch' -benchtime 5x -benchmem . \
    | go run scripts/uarch-bench-json.go > BENCH_uarch.json

echo "== paperbench quick benchmark (BENCH_paperbench.json)"
go run ./cmd/paperbench -scale quick -exp all -seed 1 -q \
    -manifest BENCH_paperbench.json -results BENCH_paperbench_results.json \
    -sweepjson BENCH_guardrail_sweep.json \
    -rolloutjson BENCH_fleet_rollout.json \
    -ctrlplanejson BENCH_ctrlplane.json \
    -churnjson BENCH_ctrlplane_churn.json \
    -events BENCH_events.jsonl \
    -trace BENCH_trace.json \
    > /dev/null

echo "== surrogate benchmark (BENCH_surrogate.json)"
# Trains the analytic+ML surrogate on the quick-scale corpus, then times
# exact vs surrogate deployments head to head. Timings and the error
# distribution land in BENCH_surrogate.json only (stdout is deterministic),
# and obsdiff gates error drift below just like timing drift.
go run ./cmd/paperbench -scale quick -exp surrogate-bench -seed 1 -q \
    -surrogatejson BENCH_surrogate.json \
    > /dev/null

echo "== validate emitted JSON"
go run scripts/validate-json.go BENCH_paperbench.json BENCH_paperbench_results.json \
    BENCH_guardrail_sweep.json BENCH_fleet_rollout.json BENCH_uarch.json \
    BENCH_surrogate.json BENCH_ctrlplane.json BENCH_ctrlplane_churn.json \
    BENCH_events.jsonl BENCH_trace.json

echo "== obsdiff perf gate (fresh run vs checked-in baselines)"
# -tol 1.0 allows timing to double before failing: the quick run shares a
# container with whatever else CI is doing, so this is a coarse net for
# catastrophic regressions, not a microbenchmark. Counters and experiment
# metrics are held (near-)exact — see cmd/obsdiff for the tolerances and
# the default skip globs (cache-state and core-count dependent keys).
for f in BENCH_uarch.json BENCH_paperbench.json BENCH_paperbench_results.json BENCH_surrogate.json BENCH_ctrlplane.json BENCH_ctrlplane_churn.json; do
    if [ -f "$baseline_dir/$f" ]; then
        go run ./cmd/obsdiff -tol 1.0 "$baseline_dir/$f" "$f"
    else
        echo "obsdiff: no baseline for $f (first run?); skipping"
    fi
done

echo "check.sh: all clean"
