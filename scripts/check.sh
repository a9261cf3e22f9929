#!/bin/sh
# Repository health check: formatting, vet, build, race-enabled tests.
# Same steps as `make check`, for environments without make.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test (per-package time budgets) =="
# Tier-1 without -race, each package held to its recorded wall-time
# budget (scripts/test_budgets.txt) so the suite cannot creep back
# towards Go's 10-minute per-package timeout.
sh scripts/test_budget.sh

echo "== go test -race (sharded scheduler fail-fast) =="
# Same packages as `make race-shard`: the concurrent shard solves are
# the likeliest place for a fresh data race, so surface one in seconds
# instead of at the end of the full -race pass below.
go test -race ./internal/shard ./internal/dsslc ./internal/flow ./internal/topo

echo "== go test -race =="
go test -race -timeout 120m ./...

echo "== replay smoke =="
sh scripts/replay_smoke.sh

echo "== bench smoke =="
sh scripts/bench_smoke.sh

echo "== telemetry smoke =="
sh scripts/telemetry_smoke.sh

echo "== chaos smoke =="
sh scripts/chaos_smoke.sh

echo "OK"
