#!/usr/bin/env bash
# Builds the aggrate benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash aggbench/run.sh --workload cold-uniform-1m --seed 1 --seconds 20 --trace 0
# Every build artefact, cache and temporary file stays under ./.bench_build.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$here" -buildvcs=false -o "$out/aggbench" . >&2
exec "$out/aggbench" --tmp "$out/tmp" "$@"
