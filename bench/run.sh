#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# (binary, build cache and temporary files all stay there) and runs it with
# the given arguments. See README.md in this directory.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/r2c2-bench" .
exec "$build/r2c2-bench" --out-dir "$root/bench/out" "$@"
