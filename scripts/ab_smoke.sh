#!/bin/sh
# A/B gate smoke: two short perfbench runs of this checkout, laid out as
# one pair, go through scripts/benchcmp end to end. The comparison must
# pass, show identical simulated metrics, and call every host metric
# unresolved, since one pair cannot resolve a host measurement. The
# must-fail checks (injected regressions) are in scripts/benchcmp's
# tests, where the fixtures make them deterministic.
set -eu

cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for side in parent change; do
    echo "== perfbench testbed-mixed, 2 s ($side side) =="
    bash perfbench/run.sh --workload testbed-mixed --seed 1 --seconds 2 --trace 0 >"$out/$side.log"
    printf '{"workload":"testbed-mixed","side":"%s","rev":"smoke","result":%s}\n' \
        "$side" "$(tail -n 1 "$out/$side.log")" >>"$out/pairs.ndjson"
done

echo "== benchcmp (must pass) =="
go run ./scripts/benchcmp BENCHMARK.json "$out/pairs.ndjson" "$out/bench.json"

if ! grep -q '"sim_identical": true' "$out/bench.json"; then
    echo "FAIL: two runs of one checkout simulated different metrics" >&2
    exit 1
fi
# Pair each metric name in the report with its verdict.
verdicts=$(awk -F'"' '$2 == "name" { n = $4 } $2 == "verdict" { print n, $4 }' "$out/bench.json")
bad=$(echo "$verdicts" | awk '
    $1 ~ /^(lc_phi|lc_p50_ms|lc_p99_ms|done_frac)$/ { if ($2 != "ok") print; next }
    $2 != "unresolved" { print }')
if [ -n "$bad" ] || [ "$(echo "$verdicts" | wc -l)" -ne "$(grep -c "\"bound\"" BENCHMARK.json)" ]; then
    echo "FAIL: want simulated metrics ok and host metrics unresolved over one pair, got:" >&2
    echo "$verdicts" >&2
    exit 1
fi
echo "OK: one-pair A/B comparison passes, simulated metrics identical, host metrics unresolved"
