#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ur-knee-8x8 --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write goes under the build
# directory, ${CARGO_TARGET_DIR:-.bench_build}/perfbench; the Go build
# cache is kept there too, so only the first run compiles.
set -euo pipefail

root=$(pwd)
build_root=${CARGO_TARGET_DIR:-.bench_build}
case $build_root in
/*) ;;
*) build_root=$root/$build_root ;;
esac
build=$build_root/perfbench
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --out "$build" "$@"
