package engine

import (
	"testing"
	"time"

	"repro/internal/res"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func failEnv(onDisplaced func([]*Request), onOutcome func(Outcome)) (*sim.Simulator, *Engine) {
	s := sim.New()
	b := topo.NewBuilder()
	b.AddCluster(31, 121, res.V(8000, 16384, 1000), []res.Vector{
		res.V(4000, 8192, 500), res.V(4000, 8192, 500),
	})
	tp := b.Build()
	e := New(Config{
		Sim: s, Topo: tp, Catalog: trace.DefaultCatalog(), Policy: GreedyPolicy{},
		OnOutcome: onOutcome, OnDisplaced: onDisplaced, LCAbandonFactor: 1,
	})
	return s, e
}

func TestFailDisplacesRunningAndQueued(t *testing.T) {
	var displaced []*Request
	s, e := failEnv(func(rs []*Request) { displaced = append(displaced, rs...) }, nil)
	n := e.Node(1)
	// 4 running BE (fills CPU), 2 queued BE, 1 queued LC.
	for i := int64(0); i < 6; i++ {
		place(t, e, e.NewRequest(trace.Request{ID: i, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	}
	place(t, e, e.NewRequest(trace.Request{ID: 100, Type: 3, Class: trace.LC, Cluster: 0}), 1)
	if len(n.running) != 4 {
		t.Fatalf("setup: running = %d", len(n.running))
	}
	n.Fail()
	if !n.Down() {
		t.Fatal("node not down")
	}
	if len(displaced) != 7 {
		t.Fatalf("displaced = %d, want 7", len(displaced))
	}
	// Deterministic ID order.
	for i := 1; i < len(displaced); i++ {
		if displaced[i].ID < displaced[i-1].ID {
			t.Fatal("displaced not in ID order")
		}
	}
	if !n.Used().IsZero() {
		t.Fatalf("resources leaked: %v", n.Used())
	}
	lcq, beq := n.QueueLen()
	if lcq != 0 || beq != 0 {
		t.Fatal("queues not cleared")
	}
	// No completion events fire later.
	s.Run()
	if e.Completed != 0 {
		t.Fatalf("completed = %d after failure", e.Completed)
	}
}

func TestFailIsIdempotentAndRecoverWorks(t *testing.T) {
	calls := 0
	s, e := failEnv(func(rs []*Request) { calls++ }, nil)
	n := e.Node(1)
	place(t, e, e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	n.Fail()
	n.Fail() // no-op
	if calls != 1 {
		t.Fatalf("OnDisplaced calls = %d", calls)
	}
	n.Recover()
	if n.Down() {
		t.Fatal("still down after Recover")
	}
	place(t, e, e.NewRequest(trace.Request{ID: 2, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	s.Run()
	if e.Completed != 1 {
		t.Fatalf("completed after recover = %d", e.Completed)
	}
}

func TestArrivalAtDownNodeDisplaced(t *testing.T) {
	var displaced []*Request
	s, e := failEnv(func(rs []*Request) { displaced = append(displaced, rs...) }, nil)
	e.Node(1).Fail()
	e.Dispatch(e.NewRequest(trace.Request{ID: 5, Type: 1, Class: trace.LC, Cluster: 0}), 1)
	s.Run()
	if len(displaced) != 1 || displaced[0].ID != 5 {
		t.Fatalf("displaced = %v", displaced)
	}
}

func TestFailWithoutHandlerEmitsFailedOutcomes(t *testing.T) {
	var outs []Outcome
	s, e := failEnv(nil, func(o Outcome) { outs = append(outs, o) })
	place(t, e, e.NewRequest(trace.Request{ID: 1, Type: 1, Class: trace.LC, Cluster: 0}), 1)
	place(t, e, e.NewRequest(trace.Request{ID: 2, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	e.Node(1).Fail()
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for _, o := range outs {
		if o.Completed || o.Satisfied {
			t.Fatalf("failure outcome %+v should be failed", o)
		}
	}
	if e.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1 (the LC request)", e.Abandoned)
	}
	_ = s
}

func TestDisplacedRequestTracksRestart(t *testing.T) {
	var displaced []*Request
	_, e := failEnv(func(rs []*Request) { displaced = rs }, nil)
	r := e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 0})
	place(t, e, r, 1)
	e.Node(1).Fail()
	if len(displaced) != 1 || displaced[0].Restarts != 1 {
		t.Fatalf("running request should count a restart: %+v", displaced)
	}
}

// Regression: requests in flight to a cluster killed in the same tick
// must be re-queued through OnDisplaced on arrival — exactly once, no
// silent drops, no duplicate outcomes.
func TestClusterKillRequeuesInFlight(t *testing.T) {
	var displaced []*Request
	s, e := failEnv(func(rs []*Request) { displaced = append(displaced, rs...) },
		func(o Outcome) { t.Fatalf("unexpected outcome %+v: re-queue handler is set", o) })
	// Both requests are still in transit when the whole cluster dies.
	e.Dispatch(e.NewRequest(trace.Request{ID: 1, Type: 1, Class: trace.LC, Cluster: 0}), 1)
	e.Dispatch(e.NewRequest(trace.Request{ID: 2, Type: 6, Class: trace.BE, Cluster: 0}), 2)
	if n := e.FailCluster(0); n != 2 {
		t.Fatalf("FailCluster took down %d workers, want 2", n)
	}
	if len(displaced) != 0 {
		t.Fatalf("in-transit requests displaced before arrival: %d", len(displaced))
	}
	s.Run()
	if len(displaced) != 2 {
		t.Fatalf("displaced %d requests, want 2 (silent drop?)", len(displaced))
	}
	seen := map[int64]int{}
	for _, r := range displaced {
		seen[r.ID]++
	}
	if seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("displacement counts per ID = %v, want exactly one each", seen)
	}
	if e.Completed != 0 {
		t.Fatalf("completed = %d on a dead cluster", e.Completed)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("self-check after cluster kill: %v", err)
	}
}

// Same scenario without a displacement handler: the in-flight requests
// must resolve as failed outcomes (abandoned for LC), never vanish.
func TestClusterKillInFlightWithoutHandler(t *testing.T) {
	var outs []Outcome
	s, e := failEnv(nil, func(o Outcome) { outs = append(outs, o) })
	e.Dispatch(e.NewRequest(trace.Request{ID: 1, Type: 1, Class: trace.LC, Cluster: 0}), 1)
	e.Dispatch(e.NewRequest(trace.Request{ID: 2, Type: 6, Class: trace.BE, Cluster: 0}), 2)
	e.FailCluster(0)
	s.Run()
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d, want 2 (in-flight work lost)", len(outs))
	}
	for _, o := range outs {
		if o.Completed || o.Satisfied {
			t.Fatalf("outcome %+v should be failed", o)
		}
	}
	if e.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1 (the LC request)", e.Abandoned)
	}
}

func TestFailRecoverClusterRoundTrip(t *testing.T) {
	s, e := failEnv(func(rs []*Request) {}, nil)
	place(t, e, e.NewRequest(trace.Request{ID: 1, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	if n := e.FailCluster(0); n != 2 {
		t.Fatalf("FailCluster = %d, want 2", n)
	}
	if n := e.FailCluster(0); n != 0 {
		t.Fatalf("second FailCluster = %d, want 0 (idempotent)", n)
	}
	if n := e.RecoverCluster(0); n != 2 {
		t.Fatalf("RecoverCluster = %d, want 2", n)
	}
	place(t, e, e.NewRequest(trace.Request{ID: 2, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	s.Run()
	if e.Completed != 1 {
		t.Fatalf("completed after cluster recovery = %d, want 1", e.Completed)
	}
}

func TestDisplaceFailedBypassesHandler(t *testing.T) {
	var outs []Outcome
	handlerCalls := 0
	_, e := failEnv(func(rs []*Request) { handlerCalls++ }, func(o Outcome) { outs = append(outs, o) })
	reqs := []*Request{
		e.NewRequest(trace.Request{ID: 1, Type: 1, Class: trace.LC, Cluster: 0}),
		e.NewRequest(trace.Request{ID: 2, Type: 6, Class: trace.BE, Cluster: 0}),
	}
	e.DisplaceFailed(reqs)
	if handlerCalls != 0 {
		t.Fatal("DisplaceFailed must not loop through OnDisplaced")
	}
	if len(outs) != 2 || outs[0].Completed || outs[1].Completed {
		t.Fatalf("outcomes = %+v, want 2 failed", outs)
	}
	if e.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", e.Abandoned)
	}
	// The handler must be back in place for ordinary failures.
	place(t, e, e.NewRequest(trace.Request{ID: 3, Type: 6, Class: trace.BE, Cluster: 0}), 1)
	e.Node(1).Fail()
	if handlerCalls != 1 {
		t.Fatalf("OnDisplaced calls after restore = %d, want 1", handlerCalls)
	}
}

func TestDownNodeExcludedUntilRecovery(t *testing.T) {
	s, e := failEnv(func(rs []*Request) {}, nil)
	n1, n2 := e.Node(1), e.Node(2)
	n1.Fail()
	// The other node still works.
	place(t, e, e.NewRequest(trace.Request{ID: 1, Type: 1, Class: trace.LC, Cluster: 0}), 2)
	s.RunUntil(s.Now() + 5*time.Second)
	if e.Completed != 1 {
		t.Fatal("healthy node should keep completing")
	}
	if n1.Down() == n2.Down() {
		t.Fatal("down state confused between nodes")
	}
}
