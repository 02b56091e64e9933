#!/usr/bin/env bash
# Builds the campaign benchmark and the proc victim from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sort16-wal --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and campaign databases stay under
# .bench_build in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/victims/matmul" ./examples/victims/matmul
exec "$out/perfbench" "$@"
