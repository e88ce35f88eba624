#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, keeping the
# Go build cache, the binary, the backend files and the chrome trace under
# .bench_build at the root of the checkout.
#
#   bash perfbench/run.sh --workload ckpt-raw --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
