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
