GO ?= go

.PHONY: all build test test-budget race bench bench-trace check fmt vet clean trace-smoke verify replay-smoke fuzz-smoke ab-smoke telemetry-smoke race-telemetry race-shard chaos-smoke race-chaos seed-sweep

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 with each package held to its wall-time budget in
# scripts/test_budgets.txt (see scripts/test_budget.sh).
test-budget:
	sh scripts/test_budget.sh

# The experiments package takes ~5 min without -race and far longer with
# it; the default 10m per-package timeout is not enough.
race:
	$(GO) test -race -timeout 120m ./...

# The trace-overhead contract: TraceOff and TraceNull must report the
# same allocs/op (see bench_test.go).
bench-trace:
	$(GO) test -bench 'BenchmarkEngineTrace' -benchtime 100x -run xxx .

bench:
	$(GO) test -bench . -benchmem ./...

# Run a short traced simulation and check tango-trace parses, analyzes
# and Chrome-exports the stream.
trace-smoke:
	sh scripts/trace_smoke.sh

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The one definition of the repository check; see scripts/check.sh.
check:
	sh scripts/check.sh

# The verification gate every perf PR must pass: vet, race-enabled
# tests (includes the differential oracles, metamorphic properties and
# replay tests in internal/check) and the end-to-end replay-digest
# smoke via tango-sim -digest -verify.
verify: vet race replay-smoke

replay-smoke:
	sh scripts/replay_smoke.sh

# 25-second fuzz budget over the native fuzz targets (5 s each): the
# MCNF differential oracle, the trace CSV round-trip, the chaos
# survival oracle under fuzzer-chosen fault programs, the AVX2 row
# kernel against its Go loop, and incremental DCG-BE inference against
# a full forward.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzMinCostFlow -fuzztime 5s ./internal/flow
	$(GO) test -run xxx -fuzz FuzzTraceCSV -fuzztime 5s ./internal/trace
	$(GO) test -run xxx -fuzz FuzzChaosProgram -fuzztime 5s ./internal/check
	$(GO) test -run xxx -fuzz FuzzAccumRow -fuzztime 5s ./internal/nn
	$(GO) test -run xxx -fuzz FuzzIncrementalProbs -fuzztime 5s ./internal/rl

# A/B gate smoke: two short perfbench runs as one pair must pass
# scripts/benchcmp with identical simulated metrics (the injected
# regressions are in scripts/benchcmp's tests). Full before/after pairs:
# `bash scripts/ab.sh <parent-rev> <change-rev> <label>`.
ab-smoke:
	sh scripts/ab_smoke.sh

# Live-telemetry smoke: run tango-sim -listen, scrape /metrics /runinfo
# /trace/tail, validate the exposition via tango-top, and check the
# replay digests match a server-off run byte for byte.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Fast race pass over just the telemetry plane (scrape-vs-emit,
# tail-vs-hot-path); `make race` covers everything but takes far longer.
race-telemetry:
	$(GO) test -race ./internal/obs ./internal/telemetry

# Fast race pass over the sharded scheduling layer and the packages its
# concurrent solves lean on (pooled workspaces, keyed warm-start memos,
# the partitioner). `make race` covers everything but takes far longer.
race-shard:
	$(GO) test -race ./internal/shard ./internal/dsslc ./internal/flow ./internal/topo

# Chaos-replay smoke: the fault-injection run must pass the survival
# oracle and reproduce byte-identical digests across reruns (CLI half);
# the in-process half pins the golden fault schedules.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# Fast race pass over the fault-injection path: the chaos package, the
# engine's failure/migration handling, and the check oracles (short
# sweep). `make race` covers everything but takes far longer.
race-chaos:
	$(GO) test -race -short ./internal/chaos ./internal/engine ./internal/check

# Fig. 11(c)/(d), 12 and 13 of the quick suite at seeds 1..5, with each
# value's mean and min–max (30 to 45 minutes; not part of `check`).
seed-sweep:
	sh scripts/seed_sweep.sh

clean:
	$(GO) clean ./...
	rm -f tango-sim tango-bench tango-trace
