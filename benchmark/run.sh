#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds and runs ./benchmark from the root of
# the checkout this script lies in, with everything the Go toolchain writes
# (build cache, temporary files, module cache) kept under .bench_build in
# that checkout instead of $HOME and /tmp. A GOCACHE the caller exports wins.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
exec go run ./benchmark "$@"
