#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments from
# the repository root. Everything the build leaves behind (Go build cache,
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOTOOLCHAIN=local
go build -C "$bench" -o "$build/bench" . >&2

cd "$root"
exec "$build/bench" "$@"
