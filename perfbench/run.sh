#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper16-hot --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes under the build directory
# (CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans" "$@"
