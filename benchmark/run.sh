#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# the build and the run write stays under .bench_build in the checkout:
# the Go build cache, temp files, binaries, data dirs and span files.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
