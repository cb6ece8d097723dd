#!/usr/bin/env bash
# Builds cmd/vwsdkd and the benchmark from this checkout, then runs one
# benchmark workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/bin/vwsdkd" ./cmd/vwsdkd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

# The Go flag package takes --name and -name alike.
exec "$out/bin/perfbench" -daemon "$out/bin/vwsdkd" -root "$root" -work "$out" "$@"
