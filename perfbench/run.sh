#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root; everything it builds or
# writes stays under .bench_build.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config" # go env and telemetry files
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
