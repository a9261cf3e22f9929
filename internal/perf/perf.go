// Package perf is the performance-observability layer: where internal/obs
// answers "what did the system decide", perf answers "where did the time
// and the allocations go while deciding it".
//
// The centerpiece is the Profiler, a stack of nestable phase timers over
// a fixed enum of instrumented phases (the DSS-LC solve stages and the
// engine loop stages). Each Enter/Exit pair charges wall time and
// heap-allocation deltas (via runtime/metrics) to the phase; nesting is
// explicit, so a phase's *self* cost excludes its children while its
// *total* cost includes them, and re-entrant phases (a phase nested
// under itself) are counted once, not twice.
//
// Everything here measures the host, not the simulation: values are
// wall-clock and allocator facts that legitimately differ between two
// replays of the same scenario+seed. The replay-digest contract
// therefore excludes all perf data — the Profiler emits no obs events
// (nothing reaches obs.DigestSink) and every report field or registry
// metric derived from this package carries the obs.PerfMetricPrefix that
// obs.ReportDigest strips.
//
// A nil *Profiler is a valid disabled profiler, mirroring obs.Tracer:
// every method is a nil-check no-op, so instrumentation stays compiled
// into the hot paths at zero cost when profiling is off.
package perf

import (
	"context"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// PhaseID names one instrumented phase. The enum is fixed so the hot
// path indexes arrays instead of hashing strings.
type PhaseID uint8

const (
	// DSS-LC solve stages (internal/dsslc + internal/flow).
	PhaseSolveGraphBuild PhaseID = iota // MCNF graph construction in dsslc.route
	PhaseSolveMCNF                      // whole flow.MinCostFlow call
	PhaseSolveDijkstra                  // Johnson-potential Dijkstra searches inside MinCostFlow
	PhaseSolveAugment                   // SSP augmentation (potential update + path apply)
	// Engine loop stages (internal/core + internal/engine).
	PhaseEngineDispatch  // one dispatcher round over all LC/BE queues
	PhaseEngineAdmission // Policy.Admit calls (arrival + drain)
	PhaseEngineCollect   // the 800 ms collection tick

	PhaseCount // sentinel
)

var phaseNames = [PhaseCount]string{
	PhaseSolveGraphBuild: "solve/graph-build",
	PhaseSolveMCNF:       "solve/mcnf",
	PhaseSolveDijkstra:   "solve/dijkstra",
	PhaseSolveAugment:    "solve/augment",
	PhaseEngineDispatch:  "engine/dispatch",
	PhaseEngineAdmission: "engine/admission",
	PhaseEngineCollect:   "engine/collect",
}

// String returns the stable phase name (also the pprof label value).
func (p PhaseID) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseStats is the cumulative account of one phase.
type PhaseStats struct {
	// Calls counts Enter/Exit pairs, including re-entrant ones.
	Calls uint64
	// TotalNs is inclusive wall time: children are included, re-entrant
	// nesting of the same phase is counted once (outermost frame only).
	TotalNs int64
	// SelfNs is exclusive wall time: time in the phase minus time in
	// phases nested under it (any phase, including itself).
	SelfNs int64
	// AllocBytes / AllocObjects are exclusive heap-allocation deltas,
	// attributed like SelfNs. They are process-global allocator counters,
	// so concurrent goroutines' allocations land in whatever phase is
	// open; the simulation is single-threaded, which keeps them honest.
	AllocBytes   uint64
	AllocObjects uint64
}

// frame is one open Enter on the stack.
type frame struct {
	id      PhaseID
	start   time.Time
	allocB  uint64 // allocator counters at Enter
	allocO  uint64
	childNs int64 // time charged to nested frames
	childB  uint64
	childO  uint64
	prevCtx context.Context // pprof label context to restore on Exit
}

// Profiler accumulates PhaseStats. It is not safe for concurrent use;
// like the Tracer it relies on the simulation being single-threaded.
type Profiler struct {
	stats [PhaseCount]PhaseStats
	depth [PhaseCount]int // re-entrancy depth per phase
	outer [PhaseCount]time.Time
	stack []frame

	allocBuf []metrics.Sample // reused; keeps Enter/Exit allocation-free

	labels bool
	ctxs   [PhaseCount]context.Context
	base   context.Context
}

// New returns an enabled profiler.
func New() *Profiler {
	p := &Profiler{
		stack: make([]frame, 0, 16),
		allocBuf: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
		base: context.Background(),
	}
	return p
}

// SetLabels toggles runtime/pprof goroutine labels: while a phase is
// open, CPU-profile samples of the goroutine carry phase=<name>, so
// `go tool pprof -tagfocus` attributes samples by phase. Costs one
// SetGoroutineLabels syscall-free runtime call per Enter/Exit.
func (p *Profiler) SetLabels(on bool) {
	if p == nil {
		return
	}
	p.labels = on
	if on && p.ctxs[0] == nil {
		for i := PhaseID(0); i < PhaseCount; i++ {
			p.ctxs[i] = pprof.WithLabels(p.base, pprof.Labels("phase", i.String()))
		}
	}
}

// Enabled reports whether the profiler is live. Safe on nil.
func (p *Profiler) Enabled() bool { return p != nil }

// readAllocs returns the cumulative heap allocation counters.
func (p *Profiler) readAllocs() (bytes, objects uint64) {
	metrics.Read(p.allocBuf)
	return p.allocBuf[0].Value.Uint64(), p.allocBuf[1].Value.Uint64()
}

// Enter opens a phase. Phases nest: every Enter must be matched by an
// Exit of the same phase in LIFO order (Exit panics otherwise). Safe on
// a nil receiver (no-op).
func (p *Profiler) Enter(id PhaseID) {
	if p == nil {
		return
	}
	if id >= PhaseCount {
		panic(fmt.Sprintf("perf: unknown phase %d", id))
	}
	now := time.Now()
	if p.depth[id] == 0 {
		p.outer[id] = now
	}
	p.depth[id]++
	ab, ao := p.readAllocs()
	f := frame{id: id, start: now, allocB: ab, allocO: ao}
	if p.labels {
		if len(p.stack) > 0 {
			f.prevCtx = p.ctxs[p.stack[len(p.stack)-1].id]
		} else {
			f.prevCtx = p.base
		}
		pprof.SetGoroutineLabels(p.ctxs[id])
	}
	p.stack = append(p.stack, f)
}

// Exit closes the innermost open phase, which must be id. Safe on a nil
// receiver (no-op).
func (p *Profiler) Exit(id PhaseID) {
	if p == nil {
		return
	}
	if len(p.stack) == 0 {
		panic(fmt.Sprintf("perf: Exit(%s) with no open phase", id))
	}
	f := p.stack[len(p.stack)-1]
	if f.id != id {
		panic(fmt.Sprintf("perf: Exit(%s) but innermost open phase is %s", id, f.id))
	}
	p.stack = p.stack[:len(p.stack)-1]
	now := time.Now()
	ab, ao := p.readAllocs()
	elapsed := now.Sub(f.start).Nanoseconds()
	db, do := ab-f.allocB, ao-f.allocO

	st := &p.stats[id]
	st.Calls++
	st.SelfNs += elapsed - f.childNs
	st.AllocBytes += db - f.childB
	st.AllocObjects += do - f.childO
	p.depth[id]--
	if p.depth[id] == 0 {
		// Inclusive time is charged on the outermost exit only, so a
		// phase re-entered under itself is not double-counted.
		st.TotalNs += now.Sub(p.outer[id]).Nanoseconds()
	}
	if len(p.stack) > 0 {
		parent := &p.stack[len(p.stack)-1]
		parent.childNs += elapsed
		parent.childB += db
		parent.childO += do
	}
	if p.labels {
		pprof.SetGoroutineLabels(f.prevCtx)
	}
}

// Stats returns the cumulative stats of one phase.
func (p *Profiler) Stats(id PhaseID) PhaseStats {
	if p == nil || id >= PhaseCount {
		return PhaseStats{}
	}
	return p.stats[id]
}

// OpenDepth returns how many frames are currently open (0 when
// balanced); tests use it to assert Enter/Exit discipline.
func (p *Profiler) OpenDepth() int {
	if p == nil {
		return 0
	}
	return len(p.stack)
}

// PhaseSnapshot is one row of Snapshot.
type PhaseSnapshot struct {
	Phase string
	PhaseStats
}

// Snapshot renders every phase in enum order, including phases that were
// never entered (zero rows), so consumers always see the full breakdown
// for the solver and engine subsystems.
func (p *Profiler) Snapshot() []PhaseSnapshot {
	out := make([]PhaseSnapshot, PhaseCount)
	for i := PhaseID(0); i < PhaseCount; i++ {
		out[i] = PhaseSnapshot{Phase: i.String()}
		if p != nil {
			out[i].PhaseStats = p.stats[i]
		}
	}
	return out
}

// ReportPhases renders the snapshot as the run report's perf section
// rows (obs.PhasePerf).
func (p *Profiler) ReportPhases() []obs.PhasePerf {
	snap := p.Snapshot()
	out := make([]obs.PhasePerf, len(snap))
	for i, s := range snap {
		out[i] = obs.PhasePerf{
			Phase: s.Phase, Calls: s.Calls,
			TotalNs: s.TotalNs, SelfNs: s.SelfNs,
			AllocBytes: s.AllocBytes, AllocObjects: s.AllocObjects,
		}
	}
	return out
}
