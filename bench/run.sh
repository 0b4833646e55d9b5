#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# e.g. bash bench/run.sh --workload sweep-shared --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, the binary, daemon stores and
# the spans file) stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

bench_dir="$(dirname "$0")"
go -C "$bench_dir" build -o "$out/bench" .
exec "$out/bench" -out "$out" "$@"
