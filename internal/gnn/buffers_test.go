package gnn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
)

func TestPermIntoMatchesRandPerm(t *testing.T) {
	buf := make([]int, 64)
	for seed := int64(0); seed < 200; seed++ {
		for n := 0; n <= 64; n += 1 + int(seed%5) {
			want := rand.New(rand.NewSource(seed))
			got := rand.New(rand.NewSource(seed))
			wp := want.Perm(n)
			for i := range buf {
				buf[i] = -1 // stale contents must not leak through
			}
			gp := permInto(buf, n, got)
			if len(gp) != n {
				t.Fatalf("seed %d n %d: len %d", seed, n, len(gp))
			}
			for i := range wp {
				if gp[i] != wp[i] {
					t.Fatalf("seed %d n %d: perm %v, want %v", seed, n, gp, wp)
				}
			}
			// Same draws in the same order: the streams stay in step.
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d n %d: rng diverged after the permutation", seed, n)
			}
		}
	}
}

// hubGraph has degrees from 1 to n-1, so a small sample size p both
// samples (high-degree nodes) and takes every neighbour (leaves).
func hubGraph(n int) *Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
		if i+1 < n {
			edges = append(edges, [2]int{i, i + 1})
		}
		if i%3 == 0 {
			edges = append(edges, [2]int{i, (i + n/2) % n})
		}
	}
	return NewGraph(n, edges)
}

// gradCheckReadout finite-differences L = Σ r∘enc(x) for a fixed random
// readout r over every parameter.
func gradCheckReadout(t *testing.T, enc Encoder, g *Graph, x *nn.Mat, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var r *nn.Mat
	loss := func() float64 {
		y := enc.Forward(g, x)
		if r == nil {
			r = feat(rng, y.R, y.C)
		}
		s := 0.0
		for i, v := range y.Data {
			s += r.Data[i] * v
		}
		return s
	}
	loss()
	for _, p := range enc.Params() {
		p.Grad.Zero()
	}
	enc.Forward(g, x)
	enc.Backward(r)
	checked := 0
	for _, p := range enc.Params() {
		for i := range p.Val.Data {
			const h = 1e-6
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + h
			lp := loss()
			p.Val.Data[i] = orig - h
			lm := loss()
			p.Val.Data[i] = orig
			want := (lp - lm) / (2 * h)
			if got := p.Grad.Data[i]; math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: grad %g vs numerical %g", p.Name, i, got, want)
			}
			if p.Grad.Data[i] != 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("every gradient is zero, the check proves nothing")
	}
}

// TestGradCheckSAGESampledReused checks GraphSAGE's backward through
// p-sampling on buffers already dirtied by a pass over other features.
// The perturbed weights take no optimizer step, so every Forward keeps
// the samples of the first.
func TestGradCheckSAGESampledReused(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := NewSAGE(rng, 2, 4, 8, 6, 3)
	g := hubGraph(12)
	s.Backward(s.Forward(g, feat(rng, 12, 4)))
	x := feat(rng, 12, 4)
	gradCheckReadout(t, s, g, x, 1e-4)
}

// TestGradCheckGCNReadout checks GCN's backward on irregular degrees,
// after a pass over a different graph.
func TestGradCheckGCNReadout(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	enc := NewGCN(rng, 4, 8, 6, 3)
	warm := hubGraph(30)
	enc.Backward(enc.Forward(warm, feat(rng, 30, 4)))
	gradCheckReadout(t, enc, hubGraph(12), feat(rng, 12, 4), 1e-4)
}

// TestSAGEReusedBuffersMatchFresh requires a SAGE whose buffers hold an
// earlier pass to match a fresh copy bit for bit on the same inputs, so
// nothing stale survives in the reused buffers. Both copies start from
// one seed, so the fresh one's first Forward draws the samples the
// reused one drew for its earlier pass.
func TestSAGEReusedBuffersMatchFresh(t *testing.T) {
	mk := func() *SAGE { return NewSAGE(rand.New(rand.NewSource(31)), 3, 4, 8, 6) }
	fresh, reused := mk(), mk()
	rng := rand.New(rand.NewSource(32))
	g, x, dOut := hubGraph(17), feat(rng, 17, 4), feat(rng, 17, 6)
	// Same shapes, other values: every buffer is reused, not resized.
	reused.Backward(reused.Forward(g, feat(rng, 17, 4)))
	for _, p := range reused.Params() {
		p.Grad.Zero()
	}
	yf := fresh.Forward(g, x).Clone()
	yr := reused.Forward(g, x)
	for i := range yf.Data {
		if math.Float64bits(yf.Data[i]) != math.Float64bits(yr.Data[i]) {
			t.Fatalf("output[%d] %v vs fresh %v", i, yr.Data[i], yf.Data[i])
		}
	}
	fresh.Backward(dOut)
	reused.Backward(dOut)
	for li, p := range reused.Params() {
		q := fresh.Params()[li]
		for i := range p.Grad.Data {
			if math.Float64bits(p.Grad.Data[i]) != math.Float64bits(q.Grad.Data[i]) {
				t.Fatalf("%s grad[%d] %v vs fresh %v", p.Name, i, p.Grad.Data[i], q.Grad.Data[i])
			}
		}
	}
}

// TestSAGEForwardPureBetweenSteps requires the same (graph, features)
// to encode bit for bit alike with other forwards in between: until an
// optimizer step, the neighbour samples stay as first drawn.
func TestSAGEForwardPureBetweenSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := NewSAGE(rng, 3, 4, 8, 6)
	g := hubGraph(17)
	x := feat(rng, 17, 4)
	want := s.Forward(g, x).Clone()
	for i := 0; i < 3; i++ {
		s.Forward(g, feat(rng, 17, 4))
	}
	got := s.Forward(g, x)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("output[%d] %v, first forward gave %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestSAGEResamplesAfterStep requires an optimizer step, and not a
// direct write to the weights, to redraw the samples of a node with
// more than p neighbours.
func TestSAGEResamplesAfterStep(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	s := NewSAGE(rng, 3, 4, 8, 6)
	g := hubGraph(17) // node 0 neighbours every other node
	x := feat(rng, 17, 4)
	hubSamples := func() [][]int {
		var out [][]int
		for _, l := range s.layers {
			out = append(out, slices.Clone(l.samples[0]))
		}
		return out
	}
	s.Forward(g, x)
	before := hubSamples()
	s.Params()[0].Val.Data[0] += 0.5
	s.Forward(g, x)
	for li, ns := range hubSamples() {
		if !slices.Equal(ns, before[li]) {
			t.Fatalf("layer %d redrew the hub's samples without a step: %v, then %v", li, before[li], ns)
		}
	}
	nn.NewAdam(0.01).Step(s.Params())
	s.Forward(g, x)
	for li, ns := range hubSamples() {
		if len(ns) != 3 {
			t.Fatalf("layer %d: hub has %d samples after the step, want 3", li, len(ns))
		}
		if slices.Equal(ns, before[li]) {
			t.Fatalf("layer %d kept the hub's samples %v across an optimizer step", li, ns)
		}
	}
}

func TestSAGESteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := NewSAGE(rng, 3, 7, 32, 32)
	g := hubGraph(16)
	x := feat(rng, 16, 7)
	dOut := s.Forward(g, x).Clone()
	s.Backward(dOut)
	if n := testing.AllocsPerRun(50, func() { s.Forward(g, x) }); n != 0 {
		t.Fatalf("steady-state SAGE.Forward allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { s.Backward(dOut) }); n != 0 {
		t.Fatalf("steady-state SAGE.Backward allocates %.1f/op, want 0", n)
	}
}

// TestSAGEUsersInvertSamples requires each layer's user lists to hold,
// ascending, exactly the nodes whose samples include the node, each
// once per occurrence (hubGraph has duplicate edges), for every draw.
func TestSAGEUsersInvertSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := NewSAGE(rng, 3, 4, 8, 6)
	for _, g := range []*Graph{hubGraph(17), lineGraph(9), hubGraph(30)} {
		s.Forward(g, feat(rng, g.N, 4))
		for li, l := range s.layers {
			for j := 0; j < g.N; j++ {
				var want []int
				for i, smp := range l.samples {
					for _, k := range smp {
						if k == j {
							want = append(want, i)
						}
					}
				}
				if got := l.users[l.userOff[j]:l.userOff[j+1]]; !slices.Equal(got, want) {
					t.Fatalf("n=%d layer %d node %d: users %v, want %v", g.N, li, j, got, want)
				}
			}
		}
	}
}

// TestSAGEForwardDirtyMatchesForward mutates a few feature rows at a
// time and requires every row ForwardDirty returns to equal Forward's
// bit for bit, and every row it leaves out to equal the last full
// output, for a three-layer encoder (two cached hidden layers).
func TestSAGEForwardDirtyMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	s := NewSAGE(rng, 3, 4, 8, 8, 6)
	g := hubGraph(40)
	x := feat(rng, g.N, 4)
	var c RowCache
	var last *nn.Mat
	for round := 0; round < 40; round++ {
		if round > 0 {
			for k := 0; k < round%4; k++ {
				x.Set(rng.Intn(g.N), rng.Intn(4), rng.NormFloat64())
			}
		}
		out, rows, full := s.ForwardDirty(&c, g, x)
		if full != (round == 0) {
			t.Fatalf("round %d: full = %v", round, full)
		}
		if round%4 == 0 && round > 0 && len(rows) != 0 {
			t.Fatalf("round %d: %d rows computed for unchanged features", round, len(rows))
		}
		want := s.Forward(g, x)
		for k, i := range rows {
			for j, v := range out.Row(k) {
				if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("round %d node %d col %d: %v, Forward %v", round, i, j, v, want.At(i, j))
				}
			}
		}
		for i := 0; last != nil && i < g.N; i++ {
			if slices.Contains(rows, i) {
				continue
			}
			for j, v := range last.Row(i) {
				if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("round %d: node %d left out but its row changed", round, i)
				}
			}
		}
		last = want.Clone()
	}
}

// TestGATSteadyStateAllocFree pins GAT's reused per-layer buffers: on
// the 120-node hub graph its Forward used to allocate per node (726
// allocations per call).
func TestGATSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := NewGAT(rng, 7, 32, 32)
	gr := hubGraph(120)
	x := feat(rng, gr.N, 7)
	dOut := g.Forward(gr, x).Clone()
	g.Backward(dOut)
	if n := testing.AllocsPerRun(20, func() { g.Forward(gr, x) }); n != 0 {
		t.Fatalf("steady-state GAT.Forward allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { g.Backward(dOut) }); n != 0 {
		t.Fatalf("steady-state GAT.Backward allocates %.1f/op, want 0", n)
	}
}
