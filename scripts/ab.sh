#!/usr/bin/env bash
# A/B benchmark pairs: measures two committed revisions end to end with
# perfbench and compares them with scripts/benchcmp.
#
#   bash scripts/ab.sh <parent-rev> <change-rev> <label>
#
# Each revision is checked out into its own temporary git worktree and
# built there by its perfbench/run.sh, so only committed files are
# measured; uncommitted changes in this checkout are not. For pairs 1 to
# 10 (seed = pair number, the same on both sides) every workload in
# BENCHMARK.json runs once per side for its run_seconds: odd pairs run
# the parent first, even pairs the change first. The comparison goes to
# BENCH_<date>-<label>.json at this checkout's root; the script exits 1
# when benchcmp finds a regression, a run reported correct:false, or the
# change failed more requests.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: bash scripts/ab.sh <parent-rev> <change-rev> <label>" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
out="$root/BENCH_$(date -u +%Y-%m-%d)-$3.json"
# Ten pairs is the fewest from which a gain may be claimed.
pairs=10

echo "ab.sh: measuring committed revisions only (parent $parent, change $change);"
echo "ab.sh: uncommitted changes in this checkout are not measured"

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/parent" 2>/dev/null || true
    git worktree remove --force "$tmp/change" 2>/dev/null || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach "$tmp/parent" "$parent" >/dev/null
git worktree add --detach "$tmp/change" "$change" >/dev/null

bench="$tmp/change/BENCHMARK.json"
if ! cmp -s "$tmp/parent/BENCHMARK.json" "$bench"; then
    echo "ab.sh: BENCHMARK.json differs between the revisions; measure a benchmark change on its own" >&2
    exit 2
fi
# BENCHMARK.json keeps one workload per line; benchcmp rejects a run of
# any workload it does not list, and compares only the workloads run.
workloads=$(sed -n '/"workloads"/,/\]/s/.*{"name": *"\([^"]*\)".*/\1/p' "$bench")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$bench")
if [ -z "$workloads" ] || [ -z "$seconds" ]; then
    echo "ab.sh: cannot read the workloads or run_seconds from BENCHMARK.json" >&2
    exit 2
fi

# measure <side> <rev> <workload> <seed> appends the run's last JSON line.
measure() {
    local log="$tmp/$1-$3-$4.log" line
    bash "$tmp/$1/perfbench/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 >"$log" || true
    line=$(tail -n 1 "$log")
    case $line in
    '{'*) ;;
    *)
        echo "ab.sh: the $1 run of $3 seed $4 printed no result line; its output:" >&2
        cat "$log" >&2
        exit 1
        ;;
    esac
    printf '{"workload":"%s","side":"%s","rev":"%s","result":%s}\n' "$3" "$1" "$2" "$line" >>"$tmp/pairs.ndjson"
    echo "pair $4 $3 $1: $(grep -o '"req_per_s":{[^}]*}' <<<"$line")"
}

for i in $(seq 1 "$pairs"); do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            measure parent "$parent" "$w" "$i"
            measure change "$change" "$w" "$i"
        else
            measure change "$change" "$w" "$i"
            measure parent "$parent" "$w" "$i"
        fi
    done
done

go run ./scripts/benchcmp "$bench" "$tmp/pairs.ndjson" "$out"
