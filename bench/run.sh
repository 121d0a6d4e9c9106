#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the program (see bench/README.md). Run from the root of
# the checkout: bash bench/run.sh [flags].
#
# The binary, the Go build cache and everything else the go command writes
# (module cache, telemetry counters) go to .bench_build, so nothing outside
# the checkout is written. The first run in a fresh checkout compiles the
# standard library too.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/frbench" .
exec "$build/frbench" "$@"
