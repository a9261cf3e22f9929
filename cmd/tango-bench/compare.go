package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/metrics"
)

// Snapshot comparison: the bench regression gate. `tango-bench -compare
// old.json new.json` diffs two perf snapshots metric by metric and
// exits non-zero when any metric regressed past its threshold — wall
// time against -threshold, allocation counts against -alloc-threshold
// (allocations are near-deterministic, so their gate is tighter).

// compareRow is one metric diffed between two snapshots.
type compareRow struct {
	Metric    string
	Old, New  float64
	DeltaPct  float64
	Threshold float64 // percent; regression when DeltaPct > Threshold
	Regressed bool
}

// newRow diffs one metric; rows with a missing side (zero in either
// snapshot) are reported but never regress, so adding or removing a
// phase does not trip the gate.
func newRow(metric string, oldV, newV, thresholdPct float64) compareRow {
	r := compareRow{Metric: metric, Old: oldV, New: newV, Threshold: thresholdPct}
	if oldV > 0 && newV > 0 {
		r.DeltaPct = (newV - oldV) / oldV * 100
		r.Regressed = r.DeltaPct > thresholdPct
	}
	return r
}

// Allocation baselines of zero are meaningful — the solver hot path is
// allocation-free by contract — so unlike wall-time rows they must not
// be skipped as "missing". newAllocRow floors the old side (one alloc /
// allocBytesFloor bytes) instead: a 0→N regression trips the gate,
// while a new value at or below the floor stays quiet.
const (
	allocCountFloor = 1
	allocBytesFloor = 64
)

// The profiler's per-phase allocation deltas come from runtime/metrics
// counters that lag by up to one mcache span per size class (see
// perf.profiler_test): when a span fills inside a phase, hundreds of
// objects allocated elsewhere are flushed into that phase's account.
// The batching is deterministic per binary but shifts with any upstream
// allocation change, so two correct builds can disagree by a span's
// worth of objects on low-allocation phases. An alloc row therefore
// regresses only when the growth is also material across the whole run
// — more than these run-total floors — which keeps the gate sharp for
// real leaks (a per-op leak multiplies by the call count) while
// ignoring attribution noise at counter granularity.
const (
	allocObjsRunFloor  = 2048
	allocBytesRunFloor = 128 << 10
)

func newAllocRow(metric string, oldV, newV, thresholdPct, floor float64, calls uint64, runFloor float64) compareRow {
	r := compareRow{Metric: metric, Old: oldV, New: newV, Threshold: thresholdPct}
	base := oldV
	if base < floor {
		base = floor
	}
	switch {
	case newV > base:
		r.DeltaPct = (newV - base) / base * 100
		r.Regressed = r.DeltaPct > thresholdPct && (newV-base)*float64(calls) > runFloor
	case oldV > 0 && newV > 0:
		r.DeltaPct = (newV - oldV) / oldV * 100
	}
	return r
}

// compareSnapshots diffs every comparable metric of two snapshots.
func compareSnapshots(oldS, newS *perfSnapshot, nsPct, allocPct float64) []compareRow {
	rows := []compareRow{
		newRow("solver_ns_op", oldS.SolverNsOp, newS.SolverNsOp, nsPct),
		newRow("solver_warm_ns_op", oldS.SolverWarmNsOp, newS.SolverWarmNsOp, nsPct),
		newRow("engine_event_ns", oldS.EngineEventNs, newS.EngineEventNs, nsPct),
		newRow("cgroup_resize_ns_op", oldS.CgroupResizeNsOp, newS.CgroupResizeNsOp, nsPct),
	}
	// Shard rows compare only when both snapshots swept the same fleet
	// size; a baseline predating the shard section (or a quick-vs-full
	// mix) leaves them informational via newRow's missing-side rule.
	if oldS.ShardNodes == newS.ShardNodes {
		shardIdx := map[int]shardRow{}
		for _, r := range oldS.ShardRows {
			shardIdx[r.Shards] = r
		}
		for _, nr := range newS.ShardRows {
			or, ok := shardIdx[nr.Shards]
			if !ok {
				continue
			}
			rows = append(rows, newRow(fmt.Sprintf("shard:k=%d wall_ms", nr.Shards), or.WallMs, nr.WallMs, nsPct))
		}
	}
	sections := []struct {
		name     string
		old, new []phaseRow
	}{
		{"solver", oldS.SolverPhases, newS.SolverPhases},
		{"engine", oldS.EnginePhases, newS.EnginePhases},
		{"cgroup", oldS.CgroupPhases, newS.CgroupPhases},
	}
	for _, sec := range sections {
		idx := map[string]phaseRow{}
		for _, p := range sec.old {
			idx[p.Phase] = p
		}
		for _, np := range sec.new {
			op, ok := idx[np.Phase]
			if !ok {
				continue // new phase: informational only
			}
			prefix := sec.name + ":" + np.Phase
			rows = append(rows,
				newRow(prefix+" ns_op", op.NsOp, np.NsOp, nsPct),
				newAllocRow(prefix+" bytes_op", op.BytesOp, np.BytesOp, allocPct, allocBytesFloor, np.Calls, allocBytesRunFloor),
				newAllocRow(prefix+" allocs_op", op.AllocsOp, np.AllocsOp, allocPct, allocCountFloor, np.Calls, allocObjsRunFloor),
			)
		}
	}
	return rows
}

func readSnapshot(path string) (*perfSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s perfSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != "tango.perf-snapshot/v1" {
		return nil, fmt.Errorf("%s: unexpected schema %q", path, s.Schema)
	}
	return &s, nil
}

// runCompare loads, diffs and prints; the returned code is the process
// exit code (0 clean, 1 regression, 2 load error).
func runCompare(oldPath, newPath string, nsPct, allocPct float64) int {
	oldS, err := readSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newS, err := readSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rows := compareSnapshots(oldS, newS, nsPct, allocPct)
	tb := metrics.NewTable(fmt.Sprintf("perf compare: %s -> %s", oldPath, newPath),
		"metric", "old", "new", "delta%", "limit%", "verdict")
	regressions := 0
	for _, r := range rows {
		verdict := "ok"
		switch {
		case r.Regressed:
			verdict = "REGRESSED"
			regressions++
		case r.Old == 0 || r.New == 0:
			verdict = "n/a"
		}
		tb.AddRowF(r.Metric, r.Old, r.New, r.DeltaPct, r.Threshold, verdict)
	}
	fmt.Println(tb.String())
	if oldS.Quick != newS.Quick {
		fmt.Fprintln(os.Stderr, "compare: warning: mixing -perf-quick and full snapshots")
	}
	fmt.Printf("compare: %d metrics, %d regression(s) (ns/op limit +%g%%, alloc limit +%g%%)\n",
		len(rows), regressions, nsPct, allocPct)
	if regressions > 0 {
		return 1
	}
	return 0
}
