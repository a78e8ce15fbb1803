#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload jobs-hot --seed 1 --seconds 10 --trace 0
# Every build artifact and run file stays under .bench_build/ in the
# current directory; the Go toolchain is used offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

bin="$out/perfbench.$$"
trap 'rm -f "$bin"' EXIT
(cd "$root/perfbench" && go build -o "$bin" .)
"$bin" --workdir "$out" "$@"
