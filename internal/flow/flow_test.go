package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplePath(t *testing.T) {
	g := NewGraph()
	s, a, d := g.AddNode(), g.AddNode(), g.AddNode()
	e1 := g.AddEdge(s, a, 5, 2)
	e2 := g.AddEdge(a, d, 3, 4)
	r := g.MinCostFlow(s, d, math.MaxInt64/4)
	if r.Flow != 3 {
		t.Fatalf("flow = %d, want 3", r.Flow)
	}
	if r.Cost != 3*2+3*4 {
		t.Fatalf("cost = %d, want 18", r.Cost)
	}
	if g.Flow(e1) != 3 || g.Flow(e2) != 3 {
		t.Fatalf("edge flows %d %d", g.Flow(e1), g.Flow(e2))
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	g := NewGraph()
	s, a, b, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	cheap1 := g.AddEdge(s, a, 10, 1)
	cheap2 := g.AddEdge(a, d, 10, 1)
	exp1 := g.AddEdge(s, b, 10, 100)
	exp2 := g.AddEdge(b, d, 10, 100)
	r := g.MinCostFlow(s, d, 5)
	if r.Flow != 5 || r.Cost != 10 {
		t.Fatalf("flow=%d cost=%d, want 5/10", r.Flow, r.Cost)
	}
	if g.Flow(cheap1) != 5 || g.Flow(cheap2) != 5 {
		t.Fatal("cheap path unused")
	}
	if g.Flow(exp1) != 0 || g.Flow(exp2) != 0 {
		t.Fatal("expensive path used unnecessarily")
	}
}

func TestSpillsToExpensivePath(t *testing.T) {
	g := NewGraph()
	s, a, b, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(s, a, 3, 1)
	g.AddEdge(a, d, 3, 1)
	g.AddEdge(s, b, 10, 5)
	g.AddEdge(b, d, 10, 5)
	r := g.MinCostFlow(s, d, 7)
	if r.Flow != 7 {
		t.Fatalf("flow = %d", r.Flow)
	}
	if r.Cost != 3*2+4*10 {
		t.Fatalf("cost = %d, want 46", r.Cost)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS-style diamond with a cross edge.
	g := NewGraph()
	s := g.AddNode()
	v1, v2, v3, v4 := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	d := g.AddNode()
	g.AddEdge(s, v1, 16, 0)
	g.AddEdge(s, v2, 13, 0)
	g.AddEdge(v1, v3, 12, 0)
	g.AddEdge(v2, v1, 4, 0)
	g.AddEdge(v3, v2, 9, 0)
	g.AddEdge(v2, v4, 14, 0)
	g.AddEdge(v4, v3, 7, 0)
	g.AddEdge(v3, d, 20, 0)
	g.AddEdge(v4, d, 4, 0)
	if got := g.MinCostFlow(s, d, math.MaxInt64/4).Flow; got != 23 {
		t.Fatalf("max flow = %d, want 23", got)
	}
}

func TestMaxFlowRequiresResidualEdges(t *testing.T) {
	// The classic case where augmenting must cancel flow on a middle edge.
	g := NewGraph()
	s, a, b, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(s, a, 1, 0)
	g.AddEdge(s, b, 1, 0)
	g.AddEdge(a, b, 1, 0)
	g.AddEdge(a, d, 1, 0)
	g.AddEdge(b, d, 1, 0)
	if got := g.MinCostFlow(s, d, math.MaxInt64/4).Flow; got != 2 {
		t.Fatalf("max flow = %d, want 2", got)
	}
}

func TestFlowLimit(t *testing.T) {
	g := NewGraph()
	s, d := g.AddNode(), g.AddNode()
	g.AddEdge(s, d, 100, 3)
	r := g.MinCostFlow(s, d, 7)
	if r.Flow != 7 || r.Cost != 21 {
		t.Fatalf("limited flow = %+v", r)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph()
	s, d := g.AddNode(), g.AddNode()
	_ = g.AddNodes(3)
	r := g.MinCostFlow(s, d, 10)
	if r.Flow != 0 || r.Cost != 0 {
		t.Fatalf("disconnected result %+v", r)
	}
}

func TestSourceEqualsSink(t *testing.T) {
	g := NewGraph()
	s := g.AddNode()
	r := g.MinCostFlow(s, s, 10)
	if r.Flow != 0 {
		t.Fatalf("self flow %+v", r)
	}
}

func TestReset(t *testing.T) {
	g := NewGraph()
	s, d := g.AddNode(), g.AddNode()
	e := g.AddEdge(s, d, 5, 1)
	g.MinCostFlow(s, d, 5)
	if g.Flow(e) != 5 {
		t.Fatal("setup")
	}
	g.Reset()
	if g.Flow(e) != 0 {
		t.Fatalf("flow after reset = %d", g.Flow(e))
	}
	r := g.MinCostFlow(s, d, 3)
	if r.Flow != 3 {
		t.Fatalf("re-solve flow = %d", r.Flow)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"edge range":    func() { NewGraph().AddEdge(0, 1, 1, 1) },
		"negative cap":  func() { g := NewGraph(); g.AddNodes(2); g.AddEdge(0, 1, -1, 1) },
		"negative cost": func() { g := NewGraph(); g.AddNodes(2); g.AddEdge(0, 1, 1, -1) },
		"bad edge id":   func() { g := NewGraph(); g.AddNodes(2); g.Flow(3) },
		"bad source":    func() { g := NewGraph(); g.AddNodes(2); g.MinCostFlow(-1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// referenceMinCostFlow is an independent SPFA (Bellman-Ford queue) based
// implementation used to cross-check the Dijkstra solver on random graphs.
func referenceMinCostFlow(n int, edges [][4]int64, source, sink int, maxFlow int64) (int64, int64) {
	type rarc struct {
		to, rev   int
		cap, cost int64
	}
	adj := make([][]rarc, n)
	addEdge := func(u, v int, c, w int64) {
		adj[u] = append(adj[u], rarc{v, len(adj[v]), c, w})
		adj[v] = append(adj[v], rarc{u, len(adj[u]) - 1, 0, -w})
	}
	for _, e := range edges {
		addEdge(int(e[0]), int(e[1]), e[2], e[3])
	}
	var flow, cost int64
	for flow < maxFlow {
		dist := make([]int64, n)
		inq := make([]bool, n)
		pv := make([]int, n)
		pe := make([]int, n)
		const inf = math.MaxInt64 / 4
		for i := range dist {
			dist[i] = inf
			pv[i] = -1
		}
		dist[source] = 0
		queue := []int{source}
		inq[source] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			inq[u] = false
			for ai, a := range adj[u] {
				if a.cap > 0 && dist[u]+a.cost < dist[a.to] {
					dist[a.to] = dist[u] + a.cost
					pv[a.to], pe[a.to] = u, ai
					if !inq[a.to] {
						queue = append(queue, a.to)
						inq[a.to] = true
					}
				}
			}
		}
		if dist[sink] >= inf {
			break
		}
		push := maxFlow - flow
		for v := sink; v != source; v = pv[v] {
			if c := adj[pv[v]][pe[v]].cap; c < push {
				push = c
			}
		}
		for v := sink; v != source; v = pv[v] {
			a := &adj[pv[v]][pe[v]]
			a.cap -= push
			adj[v][a.rev].cap += push
			cost += push * a.cost
		}
		flow += push
	}
	return flow, cost
}

// Property: the Dijkstra+potentials solver matches the independent SPFA
// solver in both max flow and min cost on random graphs, and satisfies
// conservation.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 3
		m := rng.Intn(20) + 3
		g := NewGraph()
		g.AddNodes(n)
		var edges [][4]int64
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c, w := int64(rng.Intn(10)+1), int64(rng.Intn(20))
			g.AddEdge(u, v, c, w)
			edges = append(edges, [4]int64{int64(u), int64(v), c, w})
		}
		source, sink := 0, n-1
		limit := int64(rng.Intn(15) + 1)
		got := g.MinCostFlow(source, sink, limit)
		wantF, wantC := referenceMinCostFlow(n, edges, source, sink, limit)
		if got.Flow != wantF || got.Cost != wantC {
			t.Logf("seed %d: got %+v want flow=%d cost=%d", seed, got, wantF, wantC)
			return false
		}
		return g.Conservation(source, sink) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: edge flows never exceed capacities and total cost equals the
// sum of per-edge flow*cost.
func TestQuickFlowWithinCapacityAndCostConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 3
		g := NewGraph()
		g.AddNodes(n)
		type einfo struct {
			id        EdgeID
			cap, cost int64
		}
		var infos []einfo
		for i := 0; i < rng.Intn(25)+3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c, w := int64(rng.Intn(10)+1), int64(rng.Intn(20))
			infos = append(infos, einfo{g.AddEdge(u, v, c, w), c, w})
		}
		r := g.MinCostFlow(0, n-1, math.MaxInt64/4)
		var cost int64
		for _, e := range infos {
			f := g.Flow(e.id)
			if f < 0 || f > e.cap {
				return false
			}
			cost += f * e.cost
		}
		return cost == r.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMinCostFlow1000Nodes(b *testing.B) {
	build := func() (*Graph, int, int) {
		rng := rand.New(rand.NewSource(1))
		g := NewGraph()
		n := 1000
		g.AddNodes(n + 2)
		s, d := n, n+1
		for i := 0; i < n; i++ {
			g.AddEdge(s, i, int64(rng.Intn(4)+1), 0)
			g.AddEdge(i, d, int64(rng.Intn(4)+1), int64(rng.Intn(50)))
		}
		for i := 0; i < 3000; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, int64(rng.Intn(5)+1), int64(rng.Intn(100)))
			}
		}
		return g, s, d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, s, d := build()
		g.MinCostFlow(s, d, math.MaxInt64/4)
	}
}
