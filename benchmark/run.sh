#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, for example:
#
#   bash benchmark/run.sh --workload wan-learn --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every file the benchmark writes stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "benchmark/run.sh: run from the repository root (no go.mod or engine source in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GO111MODULE=on GOPROXY=off GOFLAGS=
go build -o "$out/concord-benchmark" ./benchmark
exec "$out/concord-benchmark" "$@"
