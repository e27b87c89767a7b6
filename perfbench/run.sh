#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload pmi-exchange --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, spans) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
