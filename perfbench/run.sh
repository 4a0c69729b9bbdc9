#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload sensor-pipeline --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build and module caches, scratch data and span
# dumps stay in .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOTELEMETRY=off
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
