#!/bin/sh
# Bench regression-gate smoke: prove the `tango-bench -compare` gate
# works in both directions. Two quick perf snapshots of the same seed
# must compare clean under generous thresholds (timing noise only), a
# snapshot compared against itself must be exactly clean, and a
# synthetically regressed copy of snapshot A (via benchmut) compared
# against A itself must make the gate exit non-zero. Doctoring A rather
# than B keeps the must-fail checks deterministic: the injected factor
# is the whole delta, with no A-vs-B timing noise to absorb it.
set -eu

cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

go build -o "$out/tango-bench" ./cmd/tango-bench
go build -o "$out/benchmut" ./scripts/benchmut

mkdir "$out/a" "$out/b"
echo "== perf snapshot A (quick) =="
"$out/tango-bench" -perf "$out/a" -perf-quick -seed 7
echo "== perf snapshot B (quick) =="
"$out/tango-bench" -perf "$out/b" -perf-quick -seed 7

snapA=$(ls "$out"/a/BENCH_*.json)
snapB=$(ls "$out"/b/BENCH_*.json)

echo "== compare A vs A (must pass, zero deltas) =="
"$out/tango-bench" -compare "$snapA" "$snapA"

# Quick snapshots have few calls per phase, and allocation attribution
# is process-global (background GC lands in whatever phase is open), so
# the clean-run gate uses wide thresholds; the injected regression is
# 10x (+900%), far outside them either way.
echo "== compare A vs B (must pass under noise thresholds) =="
"$out/tango-bench" -compare -threshold 300 -alloc-threshold 300 "$snapA" "$snapB"

echo "== compare A vs doctored A (must fail) =="
"$out/benchmut" -field solver_ns_op -scale 10 "$snapA" "$out/bad.json"
if "$out/tango-bench" -compare -threshold 300 -alloc-threshold 300 "$snapA" "$out/bad.json"; then
    echo "FAIL: -compare accepted a 10x solver regression" >&2
    exit 1
fi

# The solver hot path is allocation-free by contract, so the alloc gate
# must also catch a regression from a ~zero baseline (the floor-based
# 0 -> N rule in newAllocRow): doctor the Dijkstra phase back up to 512
# allocs/op, roughly its pre-workspace cost.
echo "== compare A vs alloc-doctored A (must fail) =="
"$out/benchmut" -section solver_phases -phase solve/dijkstra -field allocs_op -set 512 \
    "$snapA" "$out/bad-alloc.json"
if "$out/tango-bench" -compare -threshold 300 -alloc-threshold 300 "$snapA" "$out/bad-alloc.json"; then
    echo "FAIL: -compare accepted a 0 -> 512 allocs/op solver regression" >&2
    exit 1
fi
echo "OK: bench gate passes clean runs and rejects injected time and alloc regressions"
