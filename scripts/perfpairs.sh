#!/usr/bin/env bash
# Runs alternating perfbench pairs of a git revision against the working
# tree and prints each end-to-end metric's summary:
#
#   bash scripts/perfpairs.sh REV WORKLOAD PAIRS FIRST_SEED [SECONDS]
#
# Pair i runs seed FIRST_SEED+i for SECONDS (default 30) on both sides,
# REV's side first in even pairs and the working tree's first in odd ones,
# so neither side always runs on a host warmed by the other. REV is
# exported with git archive into a temporary directory, removed on exit,
# whose perfbench builds inside it; the working tree's perfbench builds
# into its git-ignored .bench_build/, so the checkout gains nothing else.
# Every run's result line is echoed as it lands. scripts/perfpairs.go then
# prints, per metric, each side's median and quartiles, the change in
# medians and the pairs the working tree won, and exits 1 if any run was
# incorrect, failed operations or exited non-zero. Keep the host otherwise
# idle while it runs.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: bash scripts/perfpairs.sh REV WORKLOAD PAIRS FIRST_SEED [SECONDS]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 first=$4 seconds=${5:-30}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

results="$tmp/results.txt"
for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    order="base change"
    if ((i % 2 == 1)); then
        order="change base"
    fi
    for side in $order; do
        dir=$root
        if [ "$side" = base ]; then
            dir=$tmp/base
        fi
        status=0
        line=$(bash "$dir/perfbench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            2>"$tmp/stderr" | tail -n 1) || status=$?
        tail -n 1 "$tmp/stderr" >&2
        echo "$side $seed $status $line" | tee -a "$results"
    done
done

go run "$root/scripts/perfpairs.go" -bench "$root/BENCHMARK.json" -workload "$workload" < "$results"
