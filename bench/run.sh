#!/bin/bash
# Builds the benchmark from source into .bench_build/ in the checkout
# and runs it from the repository root. Everything the Go toolchain
# writes (build cache, module cache, telemetry) stays inside the
# checkout; nothing is downloaded.
set -eu
root=$PWD/.bench_build
mkdir -p "$root"
export GOCACHE=$root/go-cache GOPATH=$root/go-path XDG_CONFIG_HOME=$root/config
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$root/adaptbench" .
exec "$root/adaptbench" "$@"
