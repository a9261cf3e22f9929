package core

import (
	"testing"
	"time"

	"repro/internal/dcgbe"
	"repro/internal/engine"
	"repro/internal/topo"
	"repro/internal/trace"
)

func TestSlackFeatureWiredIntoDCGBE(t *testing.T) {
	tp := topo.PhysicalTestbed()
	sys := New(Tango(tp, 22))
	be, ok := sys.beSched.(*dcgbe.Scheduler)
	if !ok {
		t.Fatal("default BE scheduler is not DCG-BE")
	}
	if be.SlackFn == nil {
		t.Fatal("slack feature not wired into DCG-BE")
	}
	// Feed an observation and verify the slack flows through.
	w := tp.Cluster(0).Workers[0]
	st := trace.DefaultCatalog().Type(1)
	sys.reassurer.Observe(engineOutcomeFor(w, st.QoSTarget/2))
	slack := be.SlackFn(w)
	if slack != 0.5 {
		t.Fatalf("slack = %v, want 0.5", slack)
	}
	// Unknown node: zero.
	if be.SlackFn(tp.Cluster(1).Workers[0]) != 0 {
		t.Fatal("unknown node slack should be 0")
	}
}

func TestNodeSlackPicksWorst(t *testing.T) {
	tp := topo.PhysicalTestbed()
	sys := New(Tango(tp, 23))
	w := tp.Cluster(0).Workers[0]
	cat := trace.DefaultCatalog()
	// type 1: slack 0.5; type 2: slack -0.5 (violation) -> worst wins.
	sys.reassurer.Observe(engineOutcomeFor(w, cat.Type(1).QoSTarget/2))
	o := engineOutcomeFor(w, cat.Type(2).QoSTarget*3/2)
	o.Req.Type = 2
	sys.reassurer.Observe(o)
	if got := sys.nodeSlack(w); got != -0.5 {
		t.Fatalf("worst slack = %v, want -0.5", got)
	}
}

// engineOutcomeFor fabricates an LC type-1 outcome with the given
// latency at a node, for feeding the re-assurer directly in tests.
func engineOutcomeFor(node topo.NodeID, latency time.Duration) engine.Outcome {
	return engine.Outcome{
		Req:       &engine.Request{ID: 1, Type: 1, Class: trace.LC, Target: node},
		Completed: true,
		Latency:   latency,
	}
}
