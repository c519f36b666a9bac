#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"): builds
# the benchmark from the checkout's source and runs it with the driver's
# arguments. Everything the Go toolchain writes (build cache, telemetry,
# the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export HOME="$PWD/.bench_build/home" GOCACHE="$PWD/.bench_build/gocache"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOPATH GOMODCACHE
# With a fresh HOME the go command forks a detached telemetry sidecar that
# outlives the run; telemetry mode "off" is the only switch that stops it.
mkdir -p "$HOME/.config/go/telemetry"
echo off > "$HOME/.config/go/telemetry/mode"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
