#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash bench/run.sh --workload mine-city --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -all -seed 1 [-trace] [-out reports/]
#   bash bench/run.sh compare A/ B/
#
# Everything the Go toolchain writes (build cache, temp files, telemetry,
# the binary) goes under .bench_build/ in the working directory, and the
# toolchain never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/csdbench" .
exec "$out/csdbench" "$@"
