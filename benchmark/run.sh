#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache) stays inside the
# checkout under .bench_build/, so a run never touches the user's home.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/go-path"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C benchmark build -o "$root/.bench_build/approxbench" .
exec "$root/.bench_build/approxbench" "$@"
