#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload read-cold --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL files, traces) stays under .bench_build.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
