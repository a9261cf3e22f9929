package check

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func testEngine(t *testing.T) (*sim.Simulator, *engine.Engine) {
	t.Helper()
	s := sim.New()
	b := topo.NewBuilder()
	b.AddCluster(31, 121, res.V(8000, 16384, 1000), []res.Vector{
		res.V(4000, 8192, 500), res.V(4000, 8192, 500),
	})
	e := engine.New(engine.Config{
		Sim: s, Topo: b.Build(), Catalog: trace.DefaultCatalog(), Policy: engine.GreedyPolicy{},
	})
	return s, e
}

func TestVerifierSweepsClean(t *testing.T) {
	s, e := testEngine(t)
	v := NewVerifier(s.Now)
	cat := trace.DefaultCatalog()
	for i := int64(1); i <= 8; i++ {
		e.Dispatch(e.NewRequest(trace.Request{ID: i, Type: 1, Class: cat.Type(1).Class}), 1)
	}
	s.Every(10*time.Millisecond, func() { v.SweepEngine(e) })
	s.RunFor(300 * time.Millisecond)
	if err := v.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
	if v.Checks == 0 {
		t.Fatal("no checks executed")
	}

	a := obs.NewSLOAccountant(obs.SLOConfig{})
	a.Observe(1, "svc", "LC", time.Second, 10, true, true)
	a.Finalize()
	v.SweepSLO(a)
	if err := v.Err(); err != nil {
		t.Fatalf("clean slo sweep reported violations: %v", err)
	}
}

func TestVerifierRecordsViolationsWithCap(t *testing.T) {
	now := 5 * time.Millisecond
	v := NewVerifier(func() time.Duration { return now })
	v.Max = 3
	a := obs.NewSLOAccountant(obs.SLOConfig{Gap: 100 * time.Millisecond})
	// Two violations 1s apart form two episodes; sane by construction,
	// so corrupt the counter instead to trip the invariant.
	a.Observe(1, "svc", "LC", time.Second, 900, true, false)
	a.Finalize()
	svc := a.Services()[0]
	svc.Satisfied = 5 // now satisfied+violated != resolved
	for i := 0; i < 6; i++ {
		v.SweepSLO(a)
	}
	if v.Total != 6 {
		t.Fatalf("total = %d, want 6", v.Total)
	}
	if len(v.Violations) != 3 {
		t.Fatalf("retained = %d, want cap 3", len(v.Violations))
	}
	if v.Violations[0].At != now || v.Violations[0].Rule != "slo" {
		t.Fatalf("violation stamp wrong: %+v", v.Violations[0])
	}
	err := v.Err()
	if err == nil || !strings.Contains(err.Error(), "6 violation(s)") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestSLOInvariantsEpisodeChecks(t *testing.T) {
	mk := func() *obs.SLOAccountant {
		a := obs.NewSLOAccountant(obs.SLOConfig{Gap: 100 * time.Millisecond})
		a.Observe(1, "svc", "LC", 1*time.Second, 900, true, false)
		a.Observe(1, "svc", "LC", 3*time.Second, 900, true, false)
		a.Finalize()
		return a
	}
	if a := mk(); len(a.Services()[0].Episodes) != 2 {
		t.Fatalf("setup: %d episodes, want 2", len(mk().Services()[0].Episodes))
	}
	if err := SLOInvariants(mk()); err != nil {
		t.Fatalf("well-formed episodes rejected: %v", err)
	}

	a := mk()
	a.Services()[0].Episodes[1].Start = 500 * time.Millisecond // overlaps episode 0
	if err := SLOInvariants(a); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlap not detected: %v", err)
	}

	a = mk()
	a.Services()[0].Episodes[0].End = 0 // ends before start
	if err := SLOInvariants(a); err == nil || !strings.Contains(err.Error(), "before start") {
		t.Fatalf("inverted interval not detected: %v", err)
	}

	a = mk()
	a.Services()[0].Episodes[0].Violations = 0
	if err := SLOInvariants(a); err == nil || !strings.Contains(err.Error(), "violations") {
		t.Fatalf("empty episode not detected: %v", err)
	}
}

func TestFlowHookConfirmsSolves(t *testing.T) {
	v := NewVerifier(nil)
	hook := v.FlowHook()
	in := Instance{Nodes: 3, Src: 0, Sink: 2, Edges: []RefEdge{{0, 1, 5, 2}, {1, 2, 5, 0}}}
	g, _ := in.Graph()
	r := g.MinCostFlow(0, 2, 10)
	hook(g, 0, 2, r)
	if err := v.Err(); err != nil {
		t.Fatalf("valid solve flagged: %v", err)
	}
	// A negative result must be flagged even without touching the graph.
	hook(g, 0, 2, flow.Result{Flow: -1})
	if v.Total != 1 {
		t.Fatalf("negative result not flagged, total=%d", v.Total)
	}
}
