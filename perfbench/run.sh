#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see README.md). Everything the build writes stays
# under the build directory inside the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/perfbench/tmp"
export GOCACHE="$build/perfbench/gocache"
export GOPATH="$build/perfbench/gopath"
export GOTMPDIR="$build/perfbench/tmp"
export TMPDIR="$build/perfbench/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench/out" "$@"
