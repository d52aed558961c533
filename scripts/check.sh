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
# perfbench is its own module, so ./... above does not reach it; vetting
# it compiles the benchmark against the internal packages it imports.
go vet -C perfbench ./...

echo "== perfbench smoke runs (study, replay, fleet, traced replay; 1 s each)"
# Each workload's verify re-checks its measured rounds: study redeploys
# round 0 after the deployment DAG served every later round and requires
# DeepEqual results, replay compares its deployments with the exact path.
# The traced replay run wraps every model in the ledger's timed
# predictor, which must forward what the model reads; its verify
# redeploys round 0 untraced and requires DeepEqual results. The build
# lands in the git-ignored .bench_build/. The last line of each run must
# report a correct run with no failed operation.
for run in "study 0" "replay 0" "fleet 0" "replay 1"; do
    set -- $run
    w=$1 traced=$2
    line=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace "$traced" | tail -n 1)
    echo "$w (trace $traced): $line"
    case "$line" in
    *'"correct":true'*) ;;
    *) echo "perfbench $w (trace $traced): not a correct run" >&2; exit 1 ;;
    esac
    case "$line" in
    *'"failed":0'[,}]*) ;;
    *) echo "perfbench $w (trace $traced): failed operations" >&2; exit 1 ;;
    esac
done

echo "== lintdoc (package + exported-symbol docs)"
go run scripts/lintdoc.go

echo "== lintmaporder (float accumulation in map order)"
# A float +=, -= or *= inside a range over a map sums in an order that
# changes from run to run; non-test code under internal/ and cmd/ must
# have none.
go run scripts/lintmaporder.go

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
# template is shared by every goroutine that decodes a firmware image;
# internal/uarch because a trace's deployment tape is recorded once and
# replayed by every concurrent deployment of that trace; internal/surrogate
# because its concurrent deployments share the event log and the
# deployment counters with exact ones, and read their recording's
# residual-table hits without the lock while another deployment publishes
# a longer slot list; internal/telemetry and internal/core also because
# concurrent deployments of one controller share its counter set's
# projection memo.
go test -race -timeout 25m ./internal/parallel/... ./internal/dataset/... ./internal/obs/... \
    ./internal/fault/... ./internal/mcu/... ./internal/core/... ./internal/fleet/... \
    ./internal/ctrlplane/... ./internal/telemetry/... ./internal/uarch/... ./internal/surrogate/... \
    ./cmd/obsdiff/...

# Every fuzz step below minimises each new-coverage input for at most 10
# executions. Bounded by time instead (a minute by default, or 1s), a
# step on a fresh fuzz cache found inputs faster than it could minimise
# them and spent its 10s minimising, so a slow target fuzzed only a few
# dozen inputs.
fuzzmin=(-fuzzminimizetime 10x)

echo "== fuzz firmware-image loading (FuzzLoadController, 10s)"
# Both load paths must return a controller or an error for any bytes; the
# seed corpus lives in internal/core/testdata/fuzz/FuzzLoadController.
go test -run '^$' -fuzz '^FuzzLoadController$' -fuzztime 10s "${fuzzmin[@]}" ./internal/core/

echo "== fuzz binary trace decoding (FuzzTraceReader, 10s)"
# Any bytes must decode to at most the declared instruction count or fail
# with an error; seeds live in internal/trace/testdata/fuzz/FuzzTraceReader.
go test -run '^$' -fuzz '^FuzzTraceReader$' -fuzztime 10s "${fuzzmin[@]}" ./internal/trace/

echo "== fuzz fault plans (FuzzParsePlan, 10s)"
# Any bytes must parse to a plan or fail with an error, and an accepted
# plan's per-trace injector must draw derates, telemetry and prediction
# faults over arbitrary telemetry without panicking; seeds live in
# internal/fault/testdata/fuzz/FuzzParsePlan.
go test -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 10s "${fuzzmin[@]}" ./internal/fault/

echo "== fuzz telemetry-cache reading (FuzzReadCache, 10s)"
# Any bytes must decode to telemetry that fits the corpus, which dataset
# building then consumes, or count as a miss; seeds live in
# internal/dataset/testdata/fuzz/FuzzReadCache.
go test -run '^$' -fuzz '^FuzzReadCache$' -fuzztime 10s "${fuzzmin[@]}" ./internal/dataset/

echo "== fuzz control-plane checkpoint restore (FuzzCheckpointRestore, 10s)"
# Any bytes written as a campaign's checkpoint must be restored or ignored,
# and the campaign must then tick and close; seeds are a five-tick
# checkpoint and its out-of-range edits, built in the test.
go test -run '^$' -fuzz '^FuzzCheckpointRestore$' -fuzztime 10s "${fuzzmin[@]}" ./internal/ctrlplane/

# The BENCH files obsdiff gates, named once for the stash, the
# validation and the gate below.
gated=(BENCH_uarch.json BENCH_paperbench.json BENCH_paperbench_results.json BENCH_surrogate.json BENCH_ctrlplane.json BENCH_ctrlplane_churn.json)

# Stash the checked-in baselines before the steps below regenerate the
# BENCH files in place; obsdiff compares fresh against stashed at the end.
baseline_dir=$(mktemp -d)
trap 'rm -rf "$baseline_dir"' EXIT
for f in "${gated[@]}"; do
    [ -f "$f" ] && cp "$f" "$baseline_dir/$f"
done

echo "== uarch Execute and tape replay benchmarks (BENCH_uarch.json)"
# Custom metrics (instrs/s, ns/instr) come from the bench harness itself;
# -benchtime counts iterations, not seconds, so the step stays fast and the
# recorded numbers are comparable run to run on the same host.
go test -run '^$' -bench 'BenchmarkUarch' -benchtime 5x -benchmem . \
    | go run scripts/uarch-bench-json.go > BENCH_uarch.json

echo "== warm the telemetry cache (unmeasured)"
# dataset.traces_simulated, dataset.intervals_recorded and the uarch.*
# counters are gated exactly, and they count simulation that a cold .cache
# adds. Only the env build reads the cache, so one unmeasured corpus run
# lets the measured run below start warm either way.
go run ./cmd/paperbench -scale quick -exp corpus -seed 1 -q > /dev/null

echo "== paperbench quick benchmark (BENCH_paperbench.json)"
# -artifacts . writes the guardrail-sweep, fleet-rollout, ctrlplane-soak
# and ctrlplane-churn BENCH files here under their committed names.
go run ./cmd/paperbench -scale quick -exp all -seed 1 -q \
    -manifest BENCH_paperbench.json -results BENCH_paperbench_results.json \
    -artifacts . \
    -events BENCH_events.jsonl \
    -trace BENCH_trace.json \
    > /dev/null

echo "== surrogate benchmark (BENCH_surrogate.json)"
# Trains the analytic+ML surrogate on the quick-scale corpus, then times
# exact vs surrogate deployments head to head. Timings and the error
# distribution land in BENCH_surrogate.json only (stdout is deterministic),
# and obsdiff gates error drift below just like timing drift.
go run ./cmd/paperbench -scale quick -exp surrogate-bench -seed 1 -q \
    -artifacts . \
    > /dev/null

echo "== validate emitted JSON"
go run scripts/validate-json.go "${gated[@]}" \
    BENCH_guardrail_sweep.json BENCH_fleet_rollout.json BENCH_events.jsonl BENCH_trace.json

echo "== obsdiff perf gate (fresh run vs checked-in baselines)"
# -tol 1.0 allows timing to double before failing: the quick run shares a
# container with whatever else CI is doing, so this is a coarse net for
# catastrophic regressions, not a microbenchmark. Counters and experiment
# metrics are held (near-)exact — see cmd/obsdiff for the tolerances and
# the default skip globs (cache-state and core-count dependent keys).
for f in "${gated[@]}"; do
    if [ -f "$baseline_dir/$f" ]; then
        go run ./cmd/obsdiff -tol 1.0 "$baseline_dir/$f" "$f"
    else
        echo "obsdiff: no baseline for $f (first run?); skipping"
    fi
done

echo "check.sh: all clean"
