#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the bench program from source and
# runs it from the checkout root. Everything the Go toolchain writes (build
# cache, temp files, telemetry counters) is pointed inside the checkout, so a
# run reads and writes nothing outside it and works with no $HOME.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
