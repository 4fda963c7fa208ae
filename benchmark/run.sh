#!/usr/bin/env bash
# What BENCHMARK.json's command runs, from the root of a checkout: build
# the benchmark with every build output inside the checkout (.bench_build/,
# Go's build cache included), then run it from this directory, as
# `go run -C benchmark .` would.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
