#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build steerqd and the benchmark
# from source into .bench_build/ at the root of the checkout, then run one
# workload. Everything the build and the run write stays under .bench_build/
# and benchmark/out/, both ignored by git.
#
#   bash benchmark/run.sh --workload serve_steady --seed 7 --seconds 10 --trace 0
#   bash benchmark/run.sh -list | -manifest | -aa 10
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/bin/steerqd" ./cmd/steerqd
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -steerqd "$build/bin/steerqd" -scratch "$build/tmp" "$@"
