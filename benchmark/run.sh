#!/usr/bin/env bash
# The benchmark command BENCHMARK.json commits to:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds the harness (a module of its own, see go.mod) from this
# checkout and runs it. Everything the Go toolchain writes — build cache,
# temp files, the two binaries — stays inside the checkout, under
# .bench_build/, so a checkout can be measured without touching $HOME.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
cd "$root"
go build -C benchmark -o "$build/manimal-bench" .
exec "$build/manimal-bench" "$@"
