#!/bin/sh
# The driver's entry point: build the harness with every Go cache inside
# the checkout, then hand it the driver's arguments. The harness builds
# cmd/rspd itself, with the same environment.
set -e
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
# The go command keeps telemetry counters under the user configuration directory.
export XDG_CONFIG_HOME="$root/.bench_build/config"
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$root/.bench_build/bin"
go build -C bench -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" "$@"
