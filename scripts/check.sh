#!/bin/sh
# Repository health check: formatting, vet, build, tests with time
# budgets, race-enabled tests and the end-to-end smokes. `make check`
# runs this script.
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
# internal/nn has an amd64 assembly kernel and a Go stub for other
# architectures; vet the learning stack for arm64 so that build keeps
# compiling.
GOARCH=arm64 go vet ./internal/nn ./internal/gnn ./internal/rl
# perfbench is a separate module over the core API; vet it and run its
# unit tests here so an API change that breaks the benchmark fails
# before the A/B smoke.
(cd perfbench && go vet ./... && go test ./...)

echo "== no fused multiply-add in topo and the learner on arm64 =="
# A fused multiply-add skips the product's rounding, so an arm64 build
# of topo or the learner (nn, gnn, rl, dcgbe) would drift from amd64 in
# the last bit. Their Go loops write each product as float64(a*b), which
# the compiler may not fuse; fail if arm64 code generation still finds a
# product to fuse.
asm=$(GOARCH=arm64 go build -gcflags=-S ./internal/topo ./internal/nn \
    ./internal/gnn ./internal/rl ./internal/dcgbe 2>&1)
fused=$(printf '%s\n' "$asm" | grep -E '[[:space:]]F(N?MADD|N?MSUB)D[[:space:]]' || true)
if [ -n "$fused" ]; then
    echo "fused multiply-add in arm64 code:"
    echo "$fused"
    exit 1
fi

echo "== production free of test oracles =="
# internal/check holds the reference solvers and differential oracles;
# only tests may import it, so no command or example links it.
if go list -deps ./cmd/... ./examples/... | grep -qx 'repro/internal/check'; then
    echo "a command or example links repro/internal/check; imported by:"
    go list -deps -f '{{range .Imports}}{{if eq . "repro/internal/check"}}{{$.ImportPath}}{{end}}{{end}}' \
        ./cmd/... ./examples/... | grep .
    exit 1
fi

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

echo "== examples =="
# Run every example at a short horizon: replay builds its topology
# through ReadJSON, largescale runs DSACO's geo filter and failover the
# down-node path.
exdir=$(mktemp -d)
trap 'rm -rf "$exdir"' EXIT
go build -o "$exdir/" ./examples/...
for ex in colocation failover quickstart replay scheduling; do
    echo "-- $ex"
    "$exdir/$ex" > /dev/null
done
echo "-- largescale"
"$exdir/largescale" -virtual 4 -duration 4s > /dev/null

echo "== replay smoke =="
sh scripts/replay_smoke.sh

echo "== A/B bench smoke =="
sh scripts/ab_smoke.sh

echo "== telemetry smoke =="
sh scripts/telemetry_smoke.sh

echo "== chaos smoke =="
sh scripts/chaos_smoke.sh

echo "OK"
