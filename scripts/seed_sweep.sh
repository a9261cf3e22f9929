#!/bin/sh
# Seed sweep: run the quick-suite Fig. 11(c), 11(d), 12 and 13
# experiments at seeds 1..5 and print every reported value's mean and
# min–max across the seeds (scripts/seedsweep). `make seed-sweep` runs
# this; it is not part of Tier-1 or scripts/check.sh, as the 20 runs
# take 30 to 45 minutes on a 2-vCPU host.
#
# Usage: sh scripts/seed_sweep.sh [report-dir]
# With a report-dir, the 20 suite reports (-report JSON) are kept there.
set -eu

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
out=${1:-$bin}
mkdir -p "$out"

go build -o "$bin/" ./cmd/tango-bench ./scripts/seedsweep
for exp in fig11c fig11d fig12 fig13; do
    for seed in 1 2 3 4 5; do
        echo "-- $exp seed $seed" >&2
        "$bin/tango-bench" -exp "$exp" -seed "$seed" -report "$out/$exp-seed$seed.json" > /dev/null
    done
done
"$bin/seedsweep" "$out"/fig*-seed*.json
