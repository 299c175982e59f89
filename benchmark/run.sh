#!/bin/bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash benchmark/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`. Everything the build and the run write stays inside the
# checkout, under .bench_build/: the Go build cache, temporary files, the
# binary, and the disk workload's data directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$root/benchmark" -o "$build/obladi-benchmark" .
exec "$build/obladi-benchmark" -data-dir "$build/data" "$@"
