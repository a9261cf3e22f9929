#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload testbed-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, the go
# command's config and telemetry) stays under .bench_build at the checkout
# root, and no module or toolchain is fetched.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
