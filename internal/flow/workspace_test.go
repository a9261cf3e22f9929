package flow

import (
	"math"
	"testing"
)

// Tests for the solver workspace: the zero-allocation budget of warmed
// solves, warm-start replay correctness at the unit level (the heavy
// differential artillery lives in internal/check), and the memo
// life-cycle across Clear/Reset/shape changes.

const unbounded = math.MaxInt64 / 4

// rebuildDiamond rebuilds the standard two-path graph inside g's
// retained arenas without materializing anything itself (the edge IDs
// are always 0..3, in AddEdge order).
func rebuildDiamond(g *Graph) {
	g.Clear()
	g.AddNodes(4)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 3, 2, 0)
	g.AddEdge(0, 2, 3, 5)
	g.AddEdge(2, 3, 3, 0)
}

// key is the fixed memo key of the single-commodity tests.
const key = 1

// buildDiamond is rebuildDiamond returning the edge IDs.
func buildDiamond(g *Graph) []EdgeID {
	rebuildDiamond(g)
	return []EdgeID{0, 1, 2, 3}
}

func TestWarmStartReplaysMemo(t *testing.T) {
	g := NewGraph()
	ws := NewWorkspace()
	g.SetWorkspace(ws)
	ids := buildDiamond(g)
	if g.WarmedAt(key, 0) {
		t.Fatal("fresh workspace claims warm")
	}
	r1 := g.WarmStartAt(key, 0, 3, unbounded)
	if r1.Flow != 5 || r1.Cost != 17 {
		t.Fatalf("cold warm-start solve = %+v, want flow 5 cost 17", r1)
	}
	if ws.WarmHits != 0 {
		t.Fatalf("WarmHits = %d after first solve, want 0", ws.WarmHits)
	}
	flows := make([]int64, len(ids))
	for i, id := range ids {
		flows[i] = g.Flow(id)
	}
	// Reset: memo replays.
	g.Reset()
	if !g.WarmedAt(key, 0) {
		t.Fatal("not warmed after Reset")
	}
	if r := g.WarmStartAt(key, 0, 3, unbounded); r != r1 {
		t.Fatalf("warm solve after Reset = %+v, cold = %+v", r, r1)
	}
	if ws.WarmHits != 1 {
		t.Fatalf("WarmHits = %d, want 1", ws.WarmHits)
	}
	// Clear+rebuild: memo survives the period boundary.
	ids = buildDiamond(g)
	if !g.WarmedAt(key, 0) {
		t.Fatal("not warmed after Clear+rebuild of the same shape")
	}
	if r := g.WarmStartAt(key, 0, 3, unbounded); r != r1 {
		t.Fatalf("warm solve after rebuild = %+v, cold = %+v", r, r1)
	}
	for i, id := range ids {
		if f := g.Flow(id); f != flows[i] {
			t.Fatalf("edge %d: warm flow %d, cold %d", i, f, flows[i])
		}
	}
	if ws.WarmHits != 2 || ws.Solves != 3 {
		t.Fatalf("counters = %d hits / %d solves, want 2/3", ws.WarmHits, ws.Solves)
	}
	// A different source must not replay the memo.
	g.Reset()
	if g.WarmedAt(key, 1) {
		t.Fatal("warmed for a different source")
	}
}

func TestWarmStartInvalidatedByShapeChange(t *testing.T) {
	g := NewGraph()
	g.SetWorkspace(NewWorkspace())
	buildDiamond(g)
	g.WarmStartAt(key, 0, 3, unbounded)
	// Change one cost: shape mismatch, cold fallback, memo refreshed.
	g.Clear()
	g.AddNodes(4)
	g.AddEdge(0, 1, 2, 2) // cost 1 -> 2
	g.AddEdge(1, 3, 2, 0)
	g.AddEdge(0, 2, 3, 5)
	g.AddEdge(2, 3, 3, 0)
	if g.WarmedAt(key, 0) {
		t.Fatal("warmed despite cost change")
	}
	r := g.WarmStartAt(key, 0, 3, unbounded)
	if r.Flow != 5 || r.Cost != 2*2+3*5 {
		t.Fatalf("solve after cost change = %+v, want flow 5 cost 19", r)
	}
	// The fallback captured a fresh memo for the new shape.
	g.Reset()
	if !g.WarmedAt(key, 0) {
		t.Fatal("memo not refreshed by the cold fallback")
	}
}

func TestWarmStartCapacityDriftKeepsMemo(t *testing.T) {
	g := NewGraph()
	ws := NewWorkspace()
	g.SetWorkspace(ws)
	buildDiamond(g)
	g.WarmStartAt(key, 0, 3, unbounded)
	// Next period: same shape, larger capacities. Memo still applies and
	// the warm result matches a cold solve of the grown graph.
	g.Clear()
	g.AddNodes(4)
	g.AddEdge(0, 1, 4, 1)
	g.AddEdge(1, 3, 4, 0)
	g.AddEdge(0, 2, 6, 5)
	g.AddEdge(2, 3, 6, 0)
	if !g.WarmedAt(key, 0) {
		t.Fatal("capacity drift invalidated the memo")
	}
	r := g.WarmStartAt(key, 0, 3, unbounded)
	if ws.WarmHits != 1 {
		t.Fatalf("WarmHits = %d, want 1", ws.WarmHits)
	}
	if r.Flow != 10 || r.Cost != 4*1+6*5 {
		t.Fatalf("warm solve of grown graph = %+v, want flow 10 cost 34", r)
	}
}

// TestClearRetainsArenas pins the allocation contract of the rebuild
// path: after the first build, Clear+rebuild of the same topology
// allocates nothing.
func TestClearRetainsArenas(t *testing.T) {
	g := NewGraph()
	g.SetWorkspace(NewWorkspace())
	buildDiamond(g)
	g.WarmStartAt(key, 0, 3, unbounded)
	allocs := testing.AllocsPerRun(100, func() {
		rebuildDiamond(g)
	})
	if allocs != 0 {
		t.Fatalf("Clear+rebuild allocates %.1f/op, want 0", allocs)
	}
}

// TestWarmedSolveAllocFree is the tentpole's allocation budget: a
// workspace-backed solve — warm replay or cold Dijkstra — performs zero
// steady-state heap allocations. TestWarmStartAtAllocFree holds the keyed
// memo to the same budget; perfbench's alloc_mb tracks allocation end to
// end.
func TestWarmedSolveAllocFree(t *testing.T) {
	g := NewGraph()
	g.SetWorkspace(NewWorkspace())
	buildDiamond(g)
	g.WarmStartAt(key, 0, 3, unbounded) // grow scratch, capture memo

	warm := testing.AllocsPerRun(100, func() {
		g.Reset()
		g.WarmStartAt(key, 0, 3, unbounded)
	})
	if warm != 0 {
		t.Fatalf("warm Reset+WarmStartAt allocates %.1f/op, want 0", warm)
	}
	cold := testing.AllocsPerRun(100, func() {
		rebuildDiamond(g)
		g.MinCostFlow(0, 3, unbounded)
	})
	if cold != 0 {
		t.Fatalf("pooled cold Clear+rebuild+MinCostFlow allocates %.1f/op, want 0", cold)
	}
}

// TestWarmStartAtKeyedMemos is the per-commodity memo table: two
// interleaved graph shapes keyed separately both warm-hit every period,
// where one shared key would evict on every alternation, and a cold
// MinCostFlow on the same workspace leaves every keyed memo alone.
func TestWarmStartAtKeyedMemos(t *testing.T) {
	g := NewGraph()
	ws := NewWorkspace()
	g.SetWorkspace(ws)

	// Shape A: the diamond. Shape B: same nodes, different costs.
	buildA := func() { rebuildDiamond(g) }
	buildB := func() {
		g.Clear()
		g.AddNodes(4)
		g.AddEdge(0, 1, 2, 7)
		g.AddEdge(1, 3, 2, 0)
		g.AddEdge(0, 2, 3, 2)
		g.AddEdge(2, 3, 3, 0)
	}

	buildA()
	ra := g.WarmStartAt(1, 0, 3, unbounded)
	buildB()
	rb := g.WarmStartAt(2, 0, 3, unbounded)
	if ws.WarmHits != 0 {
		t.Fatalf("WarmHits = %d after capture round, want 0", ws.WarmHits)
	}
	if len(ws.table) != 2 {
		t.Fatalf("memo entries = %d, want 2", len(ws.table))
	}
	// Every later period warm-hits both keys, and results stay identical
	// to the capture round.
	for period := 0; period < 3; period++ {
		buildA()
		if !g.WarmedAt(1, 0) {
			t.Fatalf("period %d: key 1 not warmed", period)
		}
		if g.WarmedAt(2, 0) {
			t.Fatalf("period %d: key 2 claims warm for shape A", period)
		}
		if r := g.WarmStartAt(1, 0, 3, unbounded); r != ra {
			t.Fatalf("period %d: keyed warm solve %+v, cold %+v", period, r, ra)
		}
		buildB()
		if r := g.WarmStartAt(2, 0, 3, unbounded); r != rb {
			t.Fatalf("period %d: keyed warm solve %+v, cold %+v", period, r, rb)
		}
	}
	if ws.WarmHits != 6 {
		t.Fatalf("WarmHits = %d, want 6 (every post-capture solve)", ws.WarmHits)
	}
	// MinCostFlow neither creates nor refreshes a keyed memo: a cold
	// solve of a third shape leaves both keys warm for their own shapes
	// and cold for the new one.
	buildC := func() {
		g.Clear()
		g.AddNodes(4)
		g.AddEdge(0, 1, 2, 3)
		g.AddEdge(1, 3, 2, 0)
		g.AddEdge(0, 2, 3, 4)
		g.AddEdge(2, 3, 3, 0)
	}
	buildC()
	g.MinCostFlow(0, 3, unbounded)
	g.Reset()
	if g.WarmedAt(1, 0) || g.WarmedAt(2, 0) {
		t.Fatal("MinCostFlow refreshed a keyed memo with its shape")
	}
	if len(ws.table) != 2 || ws.WarmHits != 6 {
		t.Fatalf("after MinCostFlow: %d memo entries, %d hits; want 2, 6", len(ws.table), ws.WarmHits)
	}
	buildA()
	if !g.WarmedAt(1, 0) {
		t.Fatal("MinCostFlow evicted key 1's memo")
	}
	g.MinCostFlow(0, 3, unbounded)
	if ws.WarmHits != 6 {
		t.Fatalf("MinCostFlow replayed a memo: WarmHits = %d, want 6", ws.WarmHits)
	}
	buildB()
	if !g.WarmedAt(2, 0) {
		t.Fatal("MinCostFlow evicted key 2's memo")
	}

	// Alternating the same two shapes through one shared key never
	// hits: each build evicts the other's memo.
	ws2 := NewWorkspace()
	g2 := NewGraph()
	g2.SetWorkspace(ws2)
	g2.Clear()
	g2.AddNodes(4)
	g2.AddEdge(0, 1, 2, 1)
	g2.AddEdge(1, 3, 2, 0)
	g2.AddEdge(0, 2, 3, 5)
	g2.AddEdge(2, 3, 3, 0)
	g2.WarmStartAt(key, 0, 3, unbounded)
	for period := 0; period < 3; period++ {
		g2.Clear()
		g2.AddNodes(4)
		g2.AddEdge(0, 1, 2, 7)
		g2.AddEdge(1, 3, 2, 0)
		g2.AddEdge(0, 2, 3, 2)
		g2.AddEdge(2, 3, 3, 0)
		g2.WarmStartAt(key, 0, 3, unbounded)
		g2.Clear()
		g2.AddNodes(4)
		g2.AddEdge(0, 1, 2, 1)
		g2.AddEdge(1, 3, 2, 0)
		g2.AddEdge(0, 2, 3, 5)
		g2.AddEdge(2, 3, 3, 0)
		g2.WarmStartAt(key, 0, 3, unbounded)
	}
	if ws2.WarmHits != 0 {
		t.Fatalf("shared-key alternation WarmHits = %d, want 0", ws2.WarmHits)
	}
}

// TestWarmStartAtAllocFree extends the zero-allocation budget to the
// keyed path: after the capture round, Clear+rebuild+WarmStartAt
// allocates nothing (map reads of an existing key are free).
func TestWarmStartAtAllocFree(t *testing.T) {
	g := NewGraph()
	g.SetWorkspace(NewWorkspace())
	buildDiamond(g)
	g.WarmStartAt(7, 0, 3, unbounded)
	allocs := testing.AllocsPerRun(100, func() {
		rebuildDiamond(g)
		g.WarmStartAt(7, 0, 3, unbounded)
	})
	if allocs != 0 {
		t.Fatalf("keyed warm rebuild+solve allocates %.1f/op, want 0", allocs)
	}
}

// TestWarmStartAtWithoutWorkspace pins the degraded mode: no workspace,
// keyed warm start is just a cold solve.
func TestWarmStartAtWithoutWorkspace(t *testing.T) {
	g := NewGraph()
	buildDiamond(g)
	if r := g.WarmStartAt(3, 0, 3, unbounded); r.Flow != 5 || r.Cost != 17 {
		t.Fatalf("workspace-free WarmStartAt = %+v, want flow 5 cost 17", r)
	}
	if g.WarmedAt(3, 0) {
		t.Fatal("workspace-free graph claims warmed")
	}
}
