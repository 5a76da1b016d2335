#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash perfbench/run.sh --workload replay-kube --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
