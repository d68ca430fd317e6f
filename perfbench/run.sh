#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fig11-online --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache"
export GOFLAGS= GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
