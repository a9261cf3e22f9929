package core

import (
	"fmt"
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

func verifyEngine(t *testing.T) (*sim.Simulator, *engine.Engine) {
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
	s, e := verifyEngine(t)
	v := &Verifier{now: s.Now}
	cat := trace.DefaultCatalog()
	for i := int64(1); i <= 8; i++ {
		e.Dispatch(e.NewRequest(trace.Request{ID: i, Type: 1, Class: cat.Type(1).Class}), 1)
	}
	empty := obs.NewSLOAccountant(obs.SLOConfig{})
	s.Every(10*time.Millisecond, func() { v.sweep(e, empty) })
	s.RunUntil(s.Now() + 300*time.Millisecond)
	if err := v.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
	if v.Checks == 0 {
		t.Fatal("no checks executed")
	}

	a := obs.NewSLOAccountant(obs.SLOConfig{})
	a.Observe(1, "svc", "LC", time.Second, 10, true, true)
	a.Finalize()
	v.sweep(e, a)
	if err := v.Err(); err != nil {
		t.Fatalf("clean slo sweep reported violations: %v", err)
	}
}

func TestVerifierRecordsViolationsWithCap(t *testing.T) {
	_, e := verifyEngine(t)
	now := 5 * time.Millisecond
	v := &Verifier{now: func() time.Duration { return now }}
	a := obs.NewSLOAccountant(obs.SLOConfig{Gap: 100 * time.Millisecond})
	// Two violations 1s apart form two episodes; sane by construction,
	// so corrupt the counter instead to trip the invariant.
	a.Observe(1, "svc", "LC", time.Second, 900, true, false)
	a.Finalize()
	svc := a.Services()[0]
	svc.Satisfied = 5 // now satisfied+violated != resolved
	const sweeps = maxViolations + 6
	for i := 0; i < sweeps; i++ {
		v.sweep(e, a)
	}
	if v.Total != sweeps {
		t.Fatalf("total = %d, want %d", v.Total, sweeps)
	}
	if v.Checks != 2*sweeps {
		t.Fatalf("checks = %d, want %d (engine + slo per sweep)", v.Checks, 2*sweeps)
	}
	if len(v.Violations) != maxViolations {
		t.Fatalf("retained = %d, want cap %d", len(v.Violations), maxViolations)
	}
	if v.Violations[0].At != now || v.Violations[0].Rule != "slo" {
		t.Fatalf("violation stamp wrong: %+v", v.Violations[0])
	}
	err := v.Err()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d violation(s)", sweeps)) {
		t.Fatalf("Err() = %v", err)
	}
}

func TestFlowHookConfirmsSolves(t *testing.T) {
	v := &Verifier{now: func() time.Duration { return 0 }}
	g := flow.NewGraph()
	g.AddNodes(3)
	g.AddEdge(0, 1, 5, 2)
	g.AddEdge(1, 2, 5, 0)
	r := g.MinCostFlow(0, 2, 10)
	v.onSolve(g, 0, 2, r)
	if err := v.Err(); err != nil {
		t.Fatalf("valid solve flagged: %v", err)
	}
	// A negative result must be flagged even without touching the graph.
	v.onSolve(g, 0, 2, flow.Result{Flow: -1})
	if v.Total != 1 {
		t.Fatalf("negative result not flagged, total=%d", v.Total)
	}
}
