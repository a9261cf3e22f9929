#!/bin/sh
# Tier-1 test-time gate: runs `go test -count=1 ./...` and fails when a
# package's wall time exceeds its budget in scripts/test_budgets.txt, or
# when a package with tests has no budget there.
#
#   sh scripts/test_budget.sh            # run the tests, then check
#   sh scripts/test_budget.sh out.txt    # check saved `go test` output
set -eu

cd "$(dirname "$0")/.."
budgets=scripts/test_budgets.txt

if [ $# -gt 0 ]; then
    out=$(cat "$1")
else
    status=0
    out=$(go test -count=1 ./... 2>&1) || status=$?
    echo "$out"
    if [ "$status" -ne 0 ]; then
        exit "$status"
    fi
fi

echo "$out" | awk -v budgets="$budgets" '
BEGIN {
    while ((getline line < budgets) > 0) {
        if (line ~ /^[ \t]*(#|$)/) continue
        split(line, f, " ")
        limit[f[1]] = f[2]
    }
}
$1 == "FAIL" && $3 ~ /^[0-9.]+s$/ {
    printf "test budget: %s failed after %s\n", $2, $3
    bad = 1
}
$1 == "ok" && $3 ~ /^[0-9.]+s$/ {
    t = substr($3, 1, length($3) - 1)
    if (!($2 in limit)) {
        printf "test budget: %s took %ss and has no budget in %s\n", $2, t, budgets
        bad = 1
    } else if (t + 0 > limit[$2] + 0) {
        printf "test budget: %s took %ss, over its %ss budget\n", $2, t, limit[$2]
        bad = 1
    }
    n++
}
END {
    if (n == 0) {
        print "test budget: no package timings in the go test output"
        exit 1
    }
    if (!bad) printf "test budget: %d packages within budget\n", n
    exit bad
}'
