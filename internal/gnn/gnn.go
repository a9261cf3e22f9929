// Package gnn implements the graph encoders DCG-BE uses to embed the
// edge-cloud network topology (§5.3.2): GraphSAGE (the paper's choice,
// Eq. 9 — neighbour sampling plus mean aggregation), and the ablation
// alternatives of Figure 11(d): GCN, GAT and a "native" encoder that
// ignores graph structure. All encoders are trainable with manual
// backpropagation through the aggregation steps.
//
// GAT's attention coefficients are treated as constants during the
// backward pass (gradients flow through the value path only). This
// stop-gradient simplification is standard for lightweight
// implementations and only affects an ablation baseline, not DCG-BE.
package gnn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
)

// Graph is an undirected topology view: Neigh[i] lists the neighbours of
// node i (no self loops needed; encoders add self contribution).
type Graph struct {
	N     int
	Neigh [][]int
}

// NewGraph builds a graph with n nodes and the given undirected edges.
func NewGraph(n int, edges [][2]int) *Graph {
	// Count degrees first so every neighbour list is a capped window of
	// one backing array, filled in edge order.
	deg := make([]int, n)
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			panic(fmt.Sprintf("gnn: edge (%d,%d) out of range n=%d", a, b, n))
		}
		if a != b {
			deg[a]++
			deg[b]++
		}
	}
	g := &Graph{N: n, Neigh: make([][]int, n)}
	backing := make([]int, 2*len(edges))
	off := 0
	for i, d := range deg {
		if d > 0 {
			g.Neigh[i] = backing[off : off : off+d]
			off += d
		}
	}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a == b {
			continue
		}
		g.Neigh[a] = append(g.Neigh[a], b)
		g.Neigh[b] = append(g.Neigh[b], a)
	}
	return g
}

// Encoder maps node features (N×F) to embeddings (N×D).
type Encoder interface {
	// Forward computes embeddings for the graph; it caches activations
	// for Backward.
	Forward(g *Graph, x *nn.Mat) *nn.Mat
	// Backward accumulates parameter gradients from dOut (N×D).
	Backward(dOut *nn.Mat)
	// Params returns the trainable parameters.
	Params() []*nn.Param
	// Name identifies the encoder in experiment output.
	Name() string
}

// sageLayer is one GraphSAGE aggregation: out = ReLU(mean(self∪N(i)) · W).
type sageLayer struct {
	w       *nn.Param
	relu    nn.ReLU
	g       *Graph
	in      *nn.Mat
	agg     *nn.Mat // cached aggregated input
	samples [][]int // neighbours actually sampled this forward
	counts  []float64
	// Reused buffers: the backing store of samples, the pre-activation
	// agg·W, W's per-call gradient, ∂L/∂agg and ∂L/∂in.
	sampled          []int
	z, dw, dAgg, dIn *nn.Mat
}

// SAGE is the GraphSAGE encoder: L layers of sample-and-mean-aggregate.
// Forward returns a matrix owned by the encoder, valid until its next
// Forward.
type SAGE struct {
	layers []*sageLayer
	// P is the per-node neighbour sample size p (§5.3.2); 0 = all.
	P    int
	rng  *rand.Rand
	perm []int // permutation scratch for sampling
}

// NewSAGE builds a GraphSAGE encoder with the given layer dimensions
// (e.g. NewSAGE(rng, p, F, 32, 32) for the paper's L=2 aggregations).
func NewSAGE(rng *rand.Rand, p int, dims ...int) *SAGE {
	if len(dims) < 2 {
		panic("gnn: SAGE needs at least input and output dims")
	}
	s := &SAGE{P: p, rng: rng}
	for i := 0; i+1 < len(dims); i++ {
		w := nn.NewMat(dims[i], dims[i+1])
		nn.XavierInit(w, rng)
		s.layers = append(s.layers, &sageLayer{
			w: &nn.Param{Name: fmt.Sprintf("sage%d.W", i), Val: w, Grad: nn.NewMat(dims[i], dims[i+1])},
		})
	}
	return s
}

// Name implements Encoder.
func (s *SAGE) Name() string { return "GraphSAGE" }

// Params implements Encoder.
func (s *SAGE) Params() []*nn.Param {
	ps := make([]*nn.Param, len(s.layers))
	for i, l := range s.layers {
		ps[i] = l.w
	}
	return ps
}

// permInto fills buf[:n] with the permutation rng.Perm(n) would return,
// making the same rng draws in the same order, and returns buf[:n].
func permInto(buf []int, n int, rng *rand.Rand) []int {
	m := buf[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// sampleInto appends at most p neighbours of neigh, picked without
// replacement (the paper's sampling step), to dst. With p <= 0 all
// neighbours are used. perm is scratch of at least len(neigh) ints.
func sampleInto(dst, neigh []int, p int, rng *rand.Rand, perm []int) []int {
	if p <= 0 || len(neigh) <= p {
		return append(dst, neigh...)
	}
	for _, j := range permInto(perm, len(neigh), rng)[:p] {
		dst = append(dst, neigh[j])
	}
	return dst
}

// Forward implements Encoder.
func (s *SAGE) Forward(g *Graph, x *nn.Mat) *nn.Mat {
	if x.R != g.N {
		panic(fmt.Sprintf("gnn: %d feature rows for %d nodes", x.R, g.N))
	}
	maxDeg := 0
	for _, ns := range g.Neigh {
		maxDeg = max(maxDeg, len(ns))
	}
	if len(s.perm) < maxDeg {
		s.perm = make([]int, maxDeg)
	}
	h := x
	for _, l := range s.layers {
		l.g, l.in = g, h
		if cap(l.samples) < g.N {
			l.samples = make([][]int, g.N)
			l.counts = make([]float64, g.N)
		}
		l.samples, l.counts = l.samples[:g.N], l.counts[:g.N]
		l.sampled = l.sampled[:0]
		l.agg = nn.Reuse(l.agg, g.N, h.C)
		agg := l.agg
		for i := 0; i < g.N; i++ {
			// Each node's samples are a capped window of one backing
			// store; a window cut before the store grew keeps its values.
			start := len(l.sampled)
			l.sampled = sampleInto(l.sampled, g.Neigh[i], s.P, s.rng, s.perm)
			ns := l.sampled[start:len(l.sampled):len(l.sampled)]
			l.samples[i] = ns
			cnt := float64(len(ns) + 1)
			l.counts[i] = cnt
			row := agg.Row(i)
			copy(row, h.Row(i))
			for _, j := range ns {
				for c, v := range h.Row(j) {
					row[c] += v
				}
			}
			for c := range row {
				row[c] /= cnt
			}
		}
		l.z = nn.Reuse(l.z, g.N, l.w.Val.C)
		h = l.relu.Forward(nn.MatMulInto(l.z, agg, l.w.Val))
	}
	return h
}

// Backward implements Encoder.
func (s *SAGE) Backward(dOut *nn.Mat) {
	d := dOut
	for li := len(s.layers) - 1; li >= 0; li-- {
		l := s.layers[li]
		if l.agg == nil {
			panic("gnn: SAGE.Backward before Forward")
		}
		dz := l.relu.Backward(d)
		l.dw = nn.Reuse(l.dw, l.w.Val.R, l.w.Val.C)
		nn.AddInPlace(l.w.Grad, nn.MatMulTransAInto(l.dw, l.agg, dz))
		if li == 0 {
			break // the gradient w.r.t. the input features is unused
		}
		l.dAgg = nn.Reuse(l.dAgg, dz.R, l.w.Val.R)
		dAgg := nn.MatMulTransBInto(l.dAgg, dz, l.w.Val)
		// Distribute mean-aggregation gradient to self and sampled
		// neighbours.
		l.dIn = nn.Reuse(l.dIn, l.in.R, l.in.C)
		dIn := l.dIn
		dIn.Zero()
		for i := 0; i < l.g.N; i++ {
			inv := 1.0 / l.counts[i]
			src := dAgg.Row(i)
			self := dIn.Row(i)
			for c, v := range src {
				self[c] += v * inv
			}
			for _, j := range l.samples[i] {
				dst := dIn.Row(j)
				for c, v := range src {
					dst[c] += v * inv
				}
			}
		}
		d = dIn
	}
}

// GCN is a graph convolutional encoder: H' = ReLU(Â H W) with symmetric
// normalization Â = D^{-1/2}(A+I)D^{-1/2}.
type GCN struct {
	ws    []*nn.Param
	relus []nn.ReLU
	// caches
	g    *Graph
	ins  []*nn.Mat
	aggs []*nn.Mat
	norm []float64 // 1/sqrt(deg+1)
}

// NewGCN builds a GCN with the given layer dims.
func NewGCN(rng *rand.Rand, dims ...int) *GCN {
	if len(dims) < 2 {
		panic("gnn: GCN needs at least input and output dims")
	}
	g := &GCN{}
	for i := 0; i+1 < len(dims); i++ {
		w := nn.NewMat(dims[i], dims[i+1])
		nn.XavierInit(w, rng)
		g.ws = append(g.ws, &nn.Param{Name: fmt.Sprintf("gcn%d.W", i), Val: w, Grad: nn.NewMat(dims[i], dims[i+1])})
		g.relus = append(g.relus, nn.ReLU{})
	}
	return g
}

// Name implements Encoder.
func (g *GCN) Name() string { return "GCN" }

// Params implements Encoder.
func (g *GCN) Params() []*nn.Param { return g.ws }

func (g *GCN) propagate(gr *Graph, h *nn.Mat) *nn.Mat {
	out := nn.NewMat(h.R, h.C)
	for i := 0; i < gr.N; i++ {
		di := g.norm[i]
		row := out.Row(i)
		for c, v := range h.Row(i) {
			row[c] += v * di * di // self loop
		}
		for _, j := range gr.Neigh[i] {
			dj := g.norm[j]
			for c, v := range h.Row(j) {
				row[c] += v * di * dj
			}
		}
	}
	return out
}

// Forward implements Encoder.
func (g *GCN) Forward(gr *Graph, x *nn.Mat) *nn.Mat {
	if x.R != gr.N {
		panic("gnn: GCN feature rows mismatch")
	}
	g.g = gr
	g.norm = make([]float64, gr.N)
	for i := range g.norm {
		g.norm[i] = 1 / math.Sqrt(float64(len(gr.Neigh[i])+1))
	}
	g.ins = g.ins[:0]
	g.aggs = g.aggs[:0]
	h := x
	for i := range g.ws {
		g.ins = append(g.ins, h)
		agg := g.propagate(gr, h)
		g.aggs = append(g.aggs, agg)
		h = g.relus[i].Forward(nn.MatMul(agg, g.ws[i].Val))
	}
	return h
}

// Backward implements Encoder. Â is symmetric, so the adjoint of the
// propagation is the propagation itself.
func (g *GCN) Backward(dOut *nn.Mat) {
	d := dOut
	for li := len(g.ws) - 1; li >= 0; li-- {
		dz := g.relus[li].Backward(d)
		nn.AddInPlace(g.ws[li].Grad, nn.MatMulTransA(g.aggs[li], dz))
		dAgg := nn.MatMulTransB(dz, g.ws[li].Val)
		d = g.propagate(g.g, dAgg)
	}
}

// GAT is a graph attention encoder (single head per layer). Attention
// weights use LeakyReLU scoring as in Veličković et al.; the backward
// pass flows through the value path only (see package comment).
type GAT struct {
	ws    []*nn.Param // value transforms
	as    []*nn.Param // attention vectors, 1 × 2*out
	relus []nn.ReLU
	g     *Graph
	ins   []*nn.Mat
	atts  [][][]float64 // per layer, per node: attention over self+neighbours
	whs   []*nn.Mat     // transformed features per layer
}

// NewGAT builds a GAT with the given layer dims.
func NewGAT(rng *rand.Rand, dims ...int) *GAT {
	if len(dims) < 2 {
		panic("gnn: GAT needs at least input and output dims")
	}
	g := &GAT{}
	for i := 0; i+1 < len(dims); i++ {
		w := nn.NewMat(dims[i], dims[i+1])
		nn.XavierInit(w, rng)
		a := nn.NewMat(1, 2*dims[i+1])
		nn.XavierInit(a, rng)
		g.ws = append(g.ws, &nn.Param{Name: fmt.Sprintf("gat%d.W", i), Val: w, Grad: nn.NewMat(dims[i], dims[i+1])})
		g.as = append(g.as, &nn.Param{Name: fmt.Sprintf("gat%d.a", i), Val: a, Grad: nn.NewMat(1, 2*dims[i+1])})
		g.relus = append(g.relus, nn.ReLU{})
	}
	return g
}

// Name implements Encoder.
func (g *GAT) Name() string { return "GAT" }

// Params implements Encoder.
func (g *GAT) Params() []*nn.Param {
	var ps []*nn.Param
	for i := range g.ws {
		ps = append(ps, g.ws[i], g.as[i])
	}
	return ps
}

func leaky(x float64) float64 {
	if x < 0 {
		return 0.2 * x
	}
	return x
}

// Forward implements Encoder.
func (g *GAT) Forward(gr *Graph, x *nn.Mat) *nn.Mat {
	if x.R != gr.N {
		panic("gnn: GAT feature rows mismatch")
	}
	g.g = gr
	g.ins = g.ins[:0]
	g.atts = g.atts[:0]
	g.whs = g.whs[:0]
	h := x
	for li := range g.ws {
		g.ins = append(g.ins, h)
		wh := nn.MatMul(h, g.ws[li].Val)
		g.whs = append(g.whs, wh)
		out := nn.NewMat(gr.N, wh.C)
		att := make([][]float64, gr.N)
		avec := g.as[li].Val.Data
		d := wh.C
		for i := 0; i < gr.N; i++ {
			cand := append([]int{i}, gr.Neigh[i]...)
			scores := make([]float64, len(cand))
			for ci, j := range cand {
				s := 0.0
				for c := 0; c < d; c++ {
					s += avec[c] * wh.At(i, c)
					s += avec[d+c] * wh.At(j, c)
				}
				scores[ci] = leaky(s)
			}
			alpha := nn.SoftmaxRow(scores, nil)
			att[i] = alpha
			row := out.Row(i)
			for ci, j := range cand {
				a := alpha[ci]
				for c, v := range wh.Row(j) {
					row[c] += a * v
				}
			}
		}
		g.atts = append(g.atts, att)
		h = g.relus[li].Forward(out)
	}
	return h
}

// Backward implements Encoder (value path only; attention coefficients
// fixed).
func (g *GAT) Backward(dOut *nn.Mat) {
	d := dOut
	for li := len(g.ws) - 1; li >= 0; li-- {
		dz := g.relus[li].Backward(d)
		wh := g.whs[li]
		// dWH[j] = sum over i of att_i[j] * dz[i]
		dWH := nn.NewMat(wh.R, wh.C)
		for i := 0; i < g.g.N; i++ {
			cand := append([]int{i}, g.g.Neigh[i]...)
			src := dz.Row(i)
			for ci, j := range cand {
				a := g.atts[li][i][ci]
				dst := dWH.Row(j)
				for c, v := range src {
					dst[c] += a * v
				}
			}
		}
		nn.AddInPlace(g.ws[li].Grad, nn.MatMulTransA(g.ins[li], dWH))
		d = nn.MatMulTransB(dWH, g.ws[li].Val)
	}
}

// Native ignores the topology entirely — a per-node MLP. This is the
// "Native-A2C" baseline of Figure 11(d).
type Native struct {
	mlp *nn.MLP
}

// NewNative builds the structure-blind encoder.
func NewNative(rng *rand.Rand, dims ...int) *Native {
	return &Native{mlp: nn.NewMLP(rng, dims...)}
}

// Name implements Encoder.
func (n *Native) Name() string { return "Native" }

// Forward implements Encoder.
func (n *Native) Forward(g *Graph, x *nn.Mat) *nn.Mat {
	if x.R != g.N {
		panic("gnn: Native feature rows mismatch")
	}
	return n.mlp.Forward(x)
}

// Backward implements Encoder.
func (n *Native) Backward(dOut *nn.Mat) { n.mlp.Backward(dOut) }

// Params implements Encoder.
func (n *Native) Params() []*nn.Param { return n.mlp.Params() }
