#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given, from the
# root of the checkout. The binary and everything the Go toolchain
# writes while building (build cache, temporary work directory, its own
# configuration directory) stay inside the checkout under .bench_build,
# so a run writes nowhere else. By hand, `cd bench && go run .` does the
# same with the user's own cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
