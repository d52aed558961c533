#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload study|replay|fleet --seed N --seconds S --trace 0|1
#
# Every build artifact (binary, Go build cache, temp files, Go's config
# directory) stays under .bench_build at the checkout root, so a run
# writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
