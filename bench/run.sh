#!/usr/bin/env bash
# Entry point for the acceptance driver (BENCHMARK.json "command"): build the
# benchmark from source into .bench_build/ inside the checkout, then run it
# with the driver's arguments. The Go build cache is kept in the checkout too,
# so nothing is read or written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
