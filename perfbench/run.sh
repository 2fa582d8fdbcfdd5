#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload d2-crawl --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS_DIR NEW_RESULTS_DIR
#
# Run it from the repository root. Everything it builds or writes stays
# under the build directory (CARGO_TARGET_DIR, default .bench_build):
# the Go build cache, the binary, scratch files, and result files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

# Keep the toolchain local and its caches and settings inside the build
# directory.
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off
export XDG_CONFIG_HOME=$build/config GOTELEMETRY=off

go build -C "$root/perfbench" -o "$build/perfbench" .
if [ "${1:-}" = compare ]; then
    exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
