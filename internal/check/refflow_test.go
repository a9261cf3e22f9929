package check

import (
	"math/rand"
	"testing"

	"repro/internal/flow"
)

// Known-answer sanity for the reference solvers themselves: a diamond
// with a cheap narrow path and an expensive wide one.
func TestRefGraphKnownAnswer(t *testing.T) {
	//      1
	//    /   \
	//  0       3     0-1-3: cap 2, cost 1+0
	//    \   /       0-2-3: cap 3, cost 5+0
	//      2
	g := &RefGraph{N: 4, Edges: []RefEdge{
		{0, 1, 2, 1}, {1, 3, 2, 0},
		{0, 2, 3, 5}, {2, 3, 3, 0},
	}}
	if f := g.MaxFlow(0, 3); f != 5 {
		t.Fatalf("max flow = %d, want 5", f)
	}
	f, c := g.MinCostMaxFlow(0, 3, refUnbounded)
	if f != 5 || c != 2*1+3*5 {
		t.Fatalf("min-cost max-flow = (%d,%d), want (5,17)", f, c)
	}
	// Limited to 2 units it must take only the cheap path.
	f, c = g.MinCostMaxFlow(0, 3, 2)
	if f != 2 || c != 2 {
		t.Fatalf("limited = (%d,%d), want (2,2)", f, c)
	}
	// Unreachable sink.
	iso := &RefGraph{N: 3, Edges: []RefEdge{{0, 1, 4, 1}}}
	if f := iso.MaxFlow(0, 2); f != 0 {
		t.Fatalf("disconnected sink max flow = %d, want 0", f)
	}
}

// TestDifferentialOracles is the acceptance-criterion sweep: across at
// least 256 seeded random instances, the production SSP solver and both
// naive references must agree on max-flow value, SSP's
// cost must be the reference optimum, conservation/Reset round-trip
// must hold, and warm-started workspace solves must be bit-identical to
// cold ones across Reset, Clear+rebuild and capacity drift (all folded
// into DiffCheck).
func TestDifferentialOracles(t *testing.T) {
	count := 0
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			in := RandomInstance(rng, 9, 24, 15, 31)
			if err := DiffCheck(in); err != nil {
				t.Fatalf("seed %d instance %d: %v\ninstance: %+v", seed, i, err, in)
			}
			count++
		}
	}
	if count < 256 {
		t.Fatalf("only %d instances checked, acceptance needs >= 256", count)
	}
}

// Metamorphic property at the solver level: multiplying every edge cost
// by a positive constant k preserves every shortest-path comparison, so
// the SSP solver must route the identical per-edge flows with total
// cost scaled exactly by k.
func TestFlowCostScalingMetamorphic(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		in := RandomInstance(rng, 8, 20, 10, 20)
		for _, k := range []int64{2, 3, 10} {
			scaled := Instance{Nodes: in.Nodes, Src: in.Src, Sink: in.Sink,
				Edges: append([]RefEdge(nil), in.Edges...)}
			for i := range scaled.Edges {
				scaled.Edges[i].Cost *= k
			}
			g1, ids1 := in.Graph()
			g2, ids2 := scaled.Graph()
			r1 := g1.MinCostFlow(in.Src, in.Sink, refUnbounded)
			r2 := g2.MinCostFlow(in.Src, in.Sink, refUnbounded)
			if r2.Flow != r1.Flow {
				t.Fatalf("seed %d k=%d: flow changed %d -> %d", seed, k, r1.Flow, r2.Flow)
			}
			if r2.Cost != k*r1.Cost {
				t.Fatalf("seed %d k=%d: cost %d, want %d*%d", seed, k, r2.Cost, k, r1.Cost)
			}
			for i := range ids1 {
				if f1, f2 := g1.Flow(ids1[i]), g2.Flow(ids2[i]); f1 != f2 {
					t.Fatalf("seed %d k=%d edge %d: flow %d -> %d", seed, k, i, f1, f2)
				}
			}
		}
	}
}

// TestWarmStartMetamorphicInterleave drives a workspace-backed graph
// through random interleavings of Clear+rebuild (same shape, capacity
// drift or genuine shape change), Reset and WarmStartAt with one fixed
// key, checking after every solve that the result and per-edge flows
// equal a fresh cold graph's — i.e. the memo life-cycle never leaks
// stale state no matter the operation order.
func TestWarmStartMetamorphicInterleave(t *testing.T) {
	const refLimit = refUnbounded
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		base := RandomInstance(rng, 8, 20, 12, 24)
		if len(base.Edges) == 0 {
			continue
		}
		cur := base
		g, _ := cur.Graph()
		ws := flow.NewWorkspace()
		g.SetWorkspace(ws)
		dirty := false
		rebuild := func(in Instance) {
			g.Clear()
			g.AddNodes(in.Nodes)
			for _, e := range in.Edges {
				g.AddEdge(e.From, e.To, e.Cap, e.Cost)
			}
			cur, dirty = in, false
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0: // rebuild unchanged
				rebuild(cur)
			case 1: // rebuild with a perturbed edge
				next := Instance{Nodes: cur.Nodes, Src: cur.Src, Sink: cur.Sink,
					Edges: append([]RefEdge(nil), cur.Edges...)}
				e := &next.Edges[rng.Intn(len(next.Edges))]
				switch rng.Intn(3) {
				case 0: // capacity drift (shape kept while cap stays open)
					if e.Cap > 0 {
						e.Cap += int64(rng.Intn(8))
					}
				case 1: // open/closed flip (shape change)
					if e.Cap > 0 {
						e.Cap = 0
					} else {
						e.Cap = 1 + int64(rng.Intn(8))
					}
				case 2: // cost change (shape change)
					e.Cost = int64(rng.Intn(25))
				}
				rebuild(next)
			case 2:
				g.Reset()
				dirty = false
			case 3:
				if dirty {
					g.Reset()
				}
				warm := g.WarmStartAt(warmKey, cur.Src, cur.Sink, refLimit)
				dirty = true
				gc, cids := cur.Graph()
				cold := gc.MinCostFlow(cur.Src, cur.Sink, refLimit)
				if warm != cold {
					t.Fatalf("seed %d op %d: warm %+v != cold %+v\ninstance: %+v", seed, op, warm, cold, cur)
				}
				for i := range cids {
					if fw, fc := g.Flow(cids[i]), gc.Flow(cids[i]); fw != fc {
						t.Fatalf("seed %d op %d edge %d: warm flow %d, cold %d", seed, op, i, fw, fc)
					}
				}
			}
		}
		if ws.Solves == 0 {
			t.Fatalf("seed %d: interleave never solved", seed)
		}
	}
}

func TestDecodeInstanceBounded(t *testing.T) {
	if _, ok := DecodeInstance(nil); ok {
		t.Fatal("empty input decoded")
	}
	in, ok := DecodeInstance([]byte{7, 0, 1, 200, 100, 5, 5, 9, 9})
	if !ok {
		t.Fatal("decode failed")
	}
	if in.Nodes < 2 || in.Nodes > 9 {
		t.Fatalf("nodes = %d outside [2,9]", in.Nodes)
	}
	for _, e := range in.Edges {
		if e.From == e.To || e.From >= in.Nodes || e.To >= in.Nodes || e.Cap < 0 || e.Cap > 15 || e.Cost < 0 || e.Cost > 31 {
			t.Fatalf("edge out of bounds: %+v", e)
		}
	}
}
