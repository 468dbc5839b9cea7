#!/usr/bin/env bash
# Builds servebench and runs it from the repository root. Run it from the
# root of a checkout:
#
#   bash cmd/servebench/run.sh -workload all -seed 1
#
# Everything the build and the runs leave behind (Go build cache, binaries,
# WAL and spool directories, span files, the go command's telemetry
# counters, which live under the user config directory) goes under
# .bench_build/ in the checkout; the toolchain never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$GOTMPDIR"
go -C "$root/cmd/servebench" build -o "$out/bin/servebench" .
exec "$out/bin/servebench" "$@"
