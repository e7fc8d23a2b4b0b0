#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the repository root:
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 20 --trace 0
#
# The build, the Go toolchain's cache and config (telemetry included) and
# the traced runs' span files stay under .bench_build/ in the current
# directory. The benchmark is its own Go module (perfbench/go.mod) that
# replaces the scrubber module with the enclosing checkout, so it builds
# from source with no downloads.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
