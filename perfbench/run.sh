#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload mobility --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh compare <dir-A> <dir-B>
#
# All build state (Go build cache, temporaries, the toolchain's telemetry
# counters, the binary) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
