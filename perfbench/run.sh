#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sim-paper --seed 42 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# per-run reports all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a polarstar checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS='-mod=readonly -buildvcs=false' GOWORK=off
go build -C "$root/perfbench" -o "$build/perfbench" .
export PERFBENCH_OUT="$build/out"
exec "$build/perfbench" "$@"
