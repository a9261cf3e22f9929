package perf

import (
	"testing"
	"time"
)

func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Fatal("nil profiler reports enabled")
	}
	// None of these may panic.
	p.Enter(PhaseSolveMCNF)
	p.Exit(PhaseSolveMCNF)
	p.SetLabels(true)
	if got := p.Stats(PhaseSolveMCNF); got != (PhaseStats{}) {
		t.Fatalf("nil profiler stats = %+v", got)
	}
	if p.OpenDepth() != 0 {
		t.Fatal("nil profiler has open frames")
	}
	snap := p.Snapshot()
	if len(snap) != int(PhaseCount) {
		t.Fatalf("nil snapshot has %d rows, want %d", len(snap), PhaseCount)
	}
}

func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

func TestNestingSelfExcludesChild(t *testing.T) {
	p := New()
	p.Enter(PhaseEngineDispatch)
	spin(2 * time.Millisecond)
	p.Enter(PhaseSolveMCNF)
	spin(4 * time.Millisecond)
	p.Exit(PhaseSolveMCNF)
	p.Exit(PhaseEngineDispatch)

	if p.OpenDepth() != 0 {
		t.Fatalf("open depth %d after balanced Enter/Exit", p.OpenDepth())
	}
	disp := p.Stats(PhaseEngineDispatch)
	mcnf := p.Stats(PhaseSolveMCNF)
	if disp.Calls != 1 || mcnf.Calls != 1 {
		t.Fatalf("calls = %d/%d, want 1/1", disp.Calls, mcnf.Calls)
	}
	if mcnf.TotalNs < (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("child total %dns, want >= ~4ms", mcnf.TotalNs)
	}
	// Parent total includes the child; parent self excludes it.
	if disp.TotalNs < disp.SelfNs+mcnf.TotalNs-int64(time.Millisecond) {
		t.Fatalf("parent total %dns < self %dns + child %dns", disp.TotalNs, disp.SelfNs, mcnf.TotalNs)
	}
	if disp.SelfNs > disp.TotalNs-mcnf.TotalNs+int64(time.Millisecond) {
		t.Fatalf("parent self %dns does not exclude child %dns (total %dns)",
			disp.SelfNs, mcnf.TotalNs, disp.TotalNs)
	}
}

func TestReentrantPhaseCountedOnce(t *testing.T) {
	p := New()
	start := time.Now()
	p.Enter(PhaseEngineDispatch)
	spin(time.Millisecond)
	p.Enter(PhaseEngineDispatch)
	spin(time.Millisecond)
	p.Exit(PhaseEngineDispatch)
	spin(time.Millisecond)
	p.Exit(PhaseEngineDispatch)
	elapsed := time.Since(start).Nanoseconds()

	st := p.Stats(PhaseEngineDispatch)
	if st.Calls != 2 {
		t.Fatalf("calls = %d, want 2", st.Calls)
	}
	// Inclusive time must be wall time of the outermost pair — roughly
	// elapsed, and critically NOT ~elapsed+1ms (double-counted inner).
	if st.TotalNs > elapsed {
		t.Fatalf("reentrant total %dns exceeds wall %dns (double count)", st.TotalNs, elapsed)
	}
	if st.TotalNs < (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("reentrant total %dns, want >= ~3ms", st.TotalNs)
	}
	// Self time still covers the whole span (self of both frames).
	if st.SelfNs > st.TotalNs {
		t.Fatalf("self %dns > total %dns", st.SelfNs, st.TotalNs)
	}
}

func TestExitMismatchPanics(t *testing.T) {
	p := New()
	p.Enter(PhaseSolveMCNF)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Exit of wrong phase did not panic")
			}
		}()
		p.Exit(PhaseSolveAugment)
	}()
	p.Exit(PhaseSolveMCNF)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Exit with empty stack did not panic")
			}
		}()
		p.Exit(PhaseSolveMCNF)
	}()
}

func TestAllocationDeltaAttribution(t *testing.T) {
	p := New()
	var sink [][]byte
	p.Enter(PhaseEngineDispatch)
	p.Enter(PhaseSolveMCNF)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 16*1024))
	}
	p.Exit(PhaseSolveMCNF)
	p.Exit(PhaseEngineDispatch)
	_ = sink

	mcnf := p.Stats(PhaseSolveMCNF)
	disp := p.Stats(PhaseEngineDispatch)
	// runtime/metrics allocation counters may lag by up to one mcache
	// flush, so assert slightly under the 1 MiB actually allocated.
	if mcnf.AllocBytes < 60*16*1024 {
		t.Fatalf("child alloc bytes %d, want >= ~1MiB", mcnf.AllocBytes)
	}
	if mcnf.AllocObjects < 60 {
		t.Fatalf("child alloc objects %d, want >= ~64", mcnf.AllocObjects)
	}
	// The parent allocated (nearly) nothing itself: the child's MiB must
	// not leak into the parent's exclusive account.
	if disp.AllocBytes > 64*1024 {
		t.Fatalf("parent self alloc bytes %d, child's allocations leaked upward", disp.AllocBytes)
	}
}

func TestSnapshotListsEveryPhaseInOrder(t *testing.T) {
	p := New()
	p.Enter(PhaseSolveAugment)
	p.Exit(PhaseSolveAugment)
	snap := p.Snapshot()
	if len(snap) != int(PhaseCount) {
		t.Fatalf("snapshot rows = %d, want %d", len(snap), PhaseCount)
	}
	for i, row := range snap {
		if row.Phase != PhaseID(i).String() {
			t.Fatalf("row %d is %q, want %q", i, row.Phase, PhaseID(i).String())
		}
	}
	if snap[PhaseSolveAugment].Calls != 1 {
		t.Fatalf("augment row calls = %d, want 1", snap[PhaseSolveAugment].Calls)
	}
	if snap[PhaseEngineCollect].Calls != 0 {
		t.Fatal("untouched phase has nonzero calls")
	}
	rep := p.ReportPhases()
	if len(rep) != int(PhaseCount) {
		t.Fatalf("report rows = %d, want %d", len(rep), PhaseCount)
	}
	if rep[PhaseSolveAugment].Phase != "solve/augment" || rep[PhaseSolveAugment].Calls != 1 {
		t.Fatalf("report augment row = %+v", rep[PhaseSolveAugment])
	}
}

func TestLabelsSmoke(t *testing.T) {
	p := New()
	p.SetLabels(true)
	p.Enter(PhaseEngineDispatch)
	p.Enter(PhaseSolveMCNF)
	p.Exit(PhaseSolveMCNF)
	p.Exit(PhaseEngineDispatch)
	if st := p.Stats(PhaseSolveMCNF); st.Calls != 1 {
		t.Fatalf("labeled run calls = %d, want 1", st.Calls)
	}
	if p.OpenDepth() != 0 {
		t.Fatal("labels left frames open")
	}
}
