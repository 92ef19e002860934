#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash benchmark/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, result files and traces all stay under
# .bench_build/ in the current directory; nothing is written elsewhere.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# The go command's caches, temporary files (its own and the C compiler's),
# telemetry and settings all live under $build; GOENV=off ignores settings
# saved with go env -w.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=readonly GOWORK=off
go -C benchmark build -o "$build/icbe-benchmark" .
exec "$build/icbe-benchmark" -out "$build/out" "$@"
