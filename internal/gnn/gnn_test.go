package gnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func lineGraph(n int) *Graph {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return NewGraph(n, edges)
}

func feat(rng *rand.Rand, n, f int) *nn.Mat {
	x := nn.NewMat(n, f)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func TestNewGraph(t *testing.T) {
	g := NewGraph(3, [][2]int{{0, 1}, {1, 2}, {2, 2}}) // self loop dropped
	if len(g.Neigh[1]) != 2 {
		t.Fatalf("node 1 neighbours = %v", g.Neigh[1])
	}
	if len(g.Neigh[2]) != 1 {
		t.Fatalf("self loop not dropped: %v", g.Neigh[2])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	NewGraph(2, [][2]int{{0, 5}})
}

func TestSampleNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	neigh := []int{1, 2, 3, 4, 5}
	perm := make([]int, len(neigh))
	sampleNeighbors := func(neigh []int, p int, rng *rand.Rand) []int {
		return sampleInto(nil, neigh, p, rng, perm)
	}
	got := sampleNeighbors(neigh, 3, rng)
	if len(got) != 3 {
		t.Fatalf("sampled %d, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatal("sampled with replacement")
		}
		seen[v] = true
	}
	if len(sampleNeighbors(neigh, 0, rng)) != 5 {
		t.Fatal("p=0 should use all")
	}
	if len(sampleNeighbors(neigh, 10, rng)) != 5 {
		t.Fatal("p>deg should use all")
	}
}

// namedEncoder labels a table case's encoder for failure messages.
type namedEncoder struct {
	name string
	Encoder
}

func encoders(rng *rand.Rand, f, h, out int) []namedEncoder {
	return []namedEncoder{
		{"GraphSAGE", NewSAGE(rng, 0, f, h, out)},
		{"GCN", NewGCN(rng, f, h, out)},
		{"GAT", NewGAT(rng, f, h, out)},
		{"Native", NewNative(rng, f, h, out)},
	}
}

func TestEncoderShapesAndNames(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := lineGraph(6)
	x := feat(rng, 6, 5)
	for _, e := range encoders(rng, 5, 8, 4) {
		y := e.Forward(g, x)
		if y.R != 6 || y.C != 4 {
			t.Fatalf("%s: output %dx%d, want 6x4", e.name, y.R, y.C)
		}
		if len(e.Params()) == 0 {
			t.Fatalf("%s: no params", e.name)
		}
	}
}

func TestGraphEncodersUseTopology(t *testing.T) {
	// Two nodes with identical features but different neighbourhoods must
	// get different embeddings from graph-aware encoders (and identical
	// ones from Native).
	rng := rand.New(rand.NewSource(3))
	g := NewGraph(4, [][2]int{{0, 2}, {2, 3}}) // node 1 isolated, node 0 has 1 neighbour
	x := nn.NewMat(4, 3)
	for j := 0; j < 3; j++ {
		x.Set(0, j, 1) // node 0 and 1 identical
		x.Set(1, j, 1)
		x.Set(2, j, float64(j))
		x.Set(3, j, -1)
	}
	for _, e := range []namedEncoder{
		{"GraphSAGE", NewSAGE(rng, 0, 3, 8, 4)},
		{"GCN", NewGCN(rng, 3, 8, 4)},
		{"GAT", NewGAT(rng, 3, 8, 4)},
	} {
		y := e.Forward(g, x)
		same := true
		for c := 0; c < y.C; c++ {
			if math.Abs(y.At(0, c)-y.At(1, c)) > 1e-9 {
				same = false
			}
		}
		if same {
			t.Errorf("%s: identical embeddings for structurally different nodes", e.name)
		}
	}
	nat := NewNative(rng, 3, 8, 4)
	y := nat.Forward(g, x)
	for c := 0; c < y.C; c++ {
		if math.Abs(y.At(0, c)-y.At(1, c)) > 1e-12 {
			t.Error("Native encoder should ignore topology")
		}
	}
}

func TestSAGEInductiveAcrossSizes(t *testing.T) {
	// The same SAGE weights must work on graphs of different sizes
	// (inductive property the paper cites for choosing GraphSAGE).
	rng := rand.New(rand.NewSource(4))
	s := NewSAGE(rng, 3, 4, 8, 4)
	y1 := s.Forward(lineGraph(5), feat(rng, 5, 4))
	y2 := s.Forward(lineGraph(50), feat(rng, 50, 4))
	if y1.R != 5 || y2.R != 50 {
		t.Fatal("inductive application failed")
	}
}

// gradCheck verifies encoder backprop on a scalar loss L = sum(out²)/2.
func gradCheck(t *testing.T, enc Encoder, g *Graph, x *nn.Mat, tol float64) {
	t.Helper()
	loss := func() float64 {
		y := enc.Forward(g, x)
		s := 0.0
		for _, v := range y.Data {
			s += 0.5 * v * v
		}
		return s
	}
	for _, p := range enc.Params() {
		p.Grad.Zero()
	}
	y := enc.Forward(g, x)
	enc.Backward(y.Clone())
	for _, p := range enc.Params() {
		for i := 0; i < len(p.Val.Data); i += 2 {
			const h = 1e-6
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + h
			lp := loss()
			p.Val.Data[i] = orig - h
			lm := loss()
			p.Val.Data[i] = orig
			want := (lp - lm) / (2 * h)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: grad %g vs numerical %g", p.Name, i, got, want)
			}
		}
	}
}

func TestGradCheckSAGE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// p=0 (no sampling) so forward is deterministic for the check.
	enc := NewSAGE(rng, 0, 3, 6, 2)
	g := lineGraph(5)
	gradCheck(t, enc, g, feat(rng, 5, 3), 1e-4)
}

func TestGradCheckGCN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	enc := NewGCN(rng, 3, 6, 2)
	gradCheck(t, enc, lineGraph(5), feat(rng, 5, 3), 1e-4)
}

func TestGradCheckNative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewNative(rng, 3, 6, 2)
	gradCheck(t, enc, lineGraph(5), feat(rng, 5, 3), 1e-4)
}

// GAT uses a stop-gradient on attention, so exact grad-check only holds
// for the value path; verify training still reduces loss instead.
func TestGATTrainsDown(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	enc := NewGAT(rng, 3, 6, 2)
	g := lineGraph(6)
	x := feat(rng, 6, 3)
	target := feat(rng, 6, 2)
	opt := nn.NewAdam(0.01)
	lossAt := func() float64 {
		y := enc.Forward(g, x)
		s := 0.0
		for i := range y.Data {
			d := y.Data[i] - target.Data[i]
			s += d * d
		}
		return s
	}
	first := lossAt()
	for step := 0; step < 200; step++ {
		for _, p := range enc.Params() {
			p.Grad.Zero()
		}
		y := enc.Forward(g, x)
		dOut := nn.NewMat(y.R, y.C)
		for i := range y.Data {
			dOut.Data[i] = 2 * (y.Data[i] - target.Data[i])
		}
		enc.Backward(dOut)
		opt.Step(enc.Params())
	}
	last := lossAt()
	if last > first*0.7 {
		t.Fatalf("GAT did not train: %g -> %g", first, last)
	}
}

// Student-teacher: each encoder must be able to fit the output of a
// same-architecture teacher (guaranteed representable), demonstrating
// that the backward pass trains all layers.
func TestEncodersLearnTeacher(t *testing.T) {
	for name, mk := range map[string]func(*rand.Rand) Encoder{
		"GraphSAGE": func(r *rand.Rand) Encoder { return NewSAGE(r, 0, 2, 8, 1) },
		"GCN":       func(r *rand.Rand) Encoder { return NewGCN(r, 2, 8, 1) },
	} {
		teacher := mk(rand.New(rand.NewSource(99)))
		student := mk(rand.New(rand.NewSource(11)))
		g := NewGraph(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}})
		rng := rand.New(rand.NewSource(21))
		x := feat(rng, 6, 2)
		target := teacher.Forward(g, x).Clone()
		opt := nn.NewAdam(0.02)
		var first, last float64
		for step := 0; step < 600; step++ {
			for _, p := range student.Params() {
				p.Grad.Zero()
			}
			y := student.Forward(g, x)
			dOut := nn.NewMat(y.R, y.C)
			last = 0
			for i := range y.Data {
				d := y.Data[i] - target.Data[i]
				last += d * d
				dOut.Data[i] = 2 * d
			}
			if step == 0 {
				first = last
			}
			student.Backward(dOut)
			opt.Step(student.Params())
		}
		if last > first/10 {
			t.Errorf("%s: teacher fit loss %g -> %g (want 10x drop)", name, first, last)
		}
	}
}

func TestSAGESamplingBoundsNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// star graph: node 0 connected to 1..9
	var edges [][2]int
	for i := 1; i < 10; i++ {
		edges = append(edges, [2]int{0, i})
	}
	g := NewGraph(10, edges)
	s := NewSAGE(rng, 3, 2, 4)
	s.Forward(g, feat(rng, 10, 2))
	if got := len(s.layers[0].samples[0]); got != 3 {
		t.Fatalf("sampled %d neighbours for hub, want 3", got)
	}
	if got := len(s.layers[0].samples[1]); got != 1 {
		t.Fatalf("leaf sampled %d, want its single neighbour", got)
	}
}

func TestForwardPanicsOnBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := lineGraph(4)
	x := feat(rng, 3, 2) // wrong row count
	for _, e := range encoders(rng, 2, 4, 2) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on bad shape", e.name)
				}
			}()
			e.Forward(g, x)
		}()
	}
}

func BenchmarkSAGEForward1000Nodes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	var edges [][2]int
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			edges = append(edges, [2]int{i, rng.Intn(n)})
		}
	}
	g := NewGraph(n, edges)
	s := NewSAGE(rng, 3, 9, 32, 32)
	x := feat(rng, n, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Forward(g, x)
	}
}
