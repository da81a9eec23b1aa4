#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from there with the arguments given. The Go tool's build cache and
# its telemetry directory (under XDG_CONFIG_HOME) are kept inside the
# checkout, and it is told never to reach for the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" -out benchmark/out "$@"
