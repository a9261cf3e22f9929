package flow

import (
	"math"
	"testing"
)

// Coverage for Reset and max flow: reuse-after-reset equivalence and the
// capacity edge cases (zero-cap edges, disconnected sink) the scheduler
// never produces but the solver must still handle.

// diamond builds the standard two-path test graph and returns the graph
// and its edge IDs: cheap narrow path 0→1→3 (cap 2, cost 1), expensive
// wide path 0→2→3 (cap 3, cost 5).
func diamond() (*Graph, []EdgeID) {
	g := NewGraph()
	g.AddNodes(4)
	ids := []EdgeID{
		g.AddEdge(0, 1, 2, 1), g.AddEdge(1, 3, 2, 0),
		g.AddEdge(0, 2, 3, 5), g.AddEdge(2, 3, 3, 0),
	}
	return g, ids
}

func TestResetReuseEquivalence(t *testing.T) {
	g, ids := diamond()
	r1 := g.MinCostFlow(0, 3, math.MaxInt64/4)
	if r1.Flow != 5 || r1.Cost != 17 {
		t.Fatalf("first solve = %+v, want flow 5 cost 17", r1)
	}
	flows := make([]int64, len(ids))
	for i, id := range ids {
		flows[i] = g.Flow(id)
	}
	// After Reset, every edge must carry zero flow again...
	g.Reset()
	for i, id := range ids {
		if f := g.Flow(id); f != 0 {
			t.Fatalf("edge %d: flow %d after Reset, want 0", i, f)
		}
	}
	// ...and a re-solve must reproduce the result and per-edge flows.
	r2 := g.MinCostFlow(0, 3, math.MaxInt64/4)
	if r2 != r1 {
		t.Fatalf("re-solve = %+v, first = %+v", r2, r1)
	}
	for i, id := range ids {
		if f := g.Flow(id); f != flows[i] {
			t.Fatalf("edge %d: flow %d after re-solve, was %d", i, f, flows[i])
		}
	}
}

func TestResetAfterPartialSolve(t *testing.T) {
	g, _ := diamond()
	if r := g.MinCostFlow(0, 3, 2); r.Flow != 2 || r.Cost != 2 {
		t.Fatalf("partial solve = %+v, want flow 2 cost 2", r)
	}
	g.Reset()
	if r := g.MinCostFlow(0, 3, math.MaxInt64/4); r.Flow != 5 || r.Cost != 17 {
		t.Fatalf("full solve after partial+Reset = %+v", r)
	}
}

func TestMaxFlowZeroCapEdges(t *testing.T) {
	g := NewGraph()
	g.AddNodes(3)
	dead := g.AddEdge(0, 1, 0, 1) // zero capacity: present but unusable
	live := g.AddEdge(0, 1, 4, 1)
	out := g.AddEdge(1, 2, 3, 0)
	if f := g.MinCostFlow(0, 2, math.MaxInt64/4).Flow; f != 3 {
		t.Fatalf("max flow = %d, want 3", f)
	}
	if f := g.Flow(dead); f != 0 {
		t.Fatalf("zero-cap edge carries %d", f)
	}
	if g.Flow(live) != 3 || g.Flow(out) != 3 {
		t.Fatalf("flows: live=%d out=%d, want 3/3", g.Flow(live), g.Flow(out))
	}
	if err := g.Conservation(0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowDisconnectedSink(t *testing.T) {
	g := NewGraph()
	g.AddNodes(4)
	g.AddEdge(0, 1, 5, 1)
	g.AddEdge(1, 0, 5, 1) // cycle off to the side; sink 3 unreachable
	if f := g.MinCostFlow(0, 3, math.MaxInt64/4).Flow; f != 0 {
		t.Fatalf("max flow to disconnected sink = %d, want 0", f)
	}
	if r := g.MinCostFlow(0, 3, 10); r != (Result{}) {
		t.Fatalf("min-cost flow to disconnected sink = %+v, want zero", r)
	}
	if err := g.Conservation(0, 3); err != nil {
		t.Fatal(err)
	}
}

// TestMaxFlowLayered pins the max flow of a two-layer graph whose
// cheapest paths saturate before the maximum is reached.
func TestMaxFlowLayered(t *testing.T) {
	g := NewGraph()
	g.AddNodes(6)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(0, 2, 10, 2)
	g.AddEdge(1, 3, 4, 1)
	g.AddEdge(1, 4, 8, 3)
	g.AddEdge(2, 4, 9, 1)
	g.AddEdge(3, 5, 10, 0)
	g.AddEdge(4, 5, 10, 0)
	if f := g.MinCostFlow(0, 5, math.MaxInt64/4).Flow; f != 14 {
		t.Fatalf("max flow = %d, want 14", f)
	}
	if err := g.Conservation(0, 5); err != nil {
		t.Fatal(err)
	}
}
