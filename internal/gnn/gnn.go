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
}

// sageLayer is one GraphSAGE aggregation: out = ReLU(mean(self∪N(i)) · W).
type sageLayer struct {
	w    *nn.Param
	relu nn.ReLU
	// samples[i] are the neighbours node i aggregates, drawn for graph g
	// at w.Steps == drawnAt, in windows of the backing store sampled.
	g       *Graph
	drawnAt int
	samples [][]int
	sampled []int
	// users[userOff[j]:userOff[j+1]] are the nodes whose samples include
	// node j, ascending and once per occurrence: the output rows that
	// read input row j. They are rebuilt with the samples.
	userOff, users []int

	in  *nn.Mat
	agg *nn.Mat // cached aggregated input
	// Reused buffers: the pre-activation agg·W, W's per-call gradient,
	// ∂L/∂agg and ∂L/∂in.
	z, dw, dAgg, dIn *nn.Mat
}

// SAGE is the GraphSAGE encoder: L layers of sample-and-mean-aggregate.
// Each layer draws its neighbour samples once per (graph, policy
// version), the version being its weights' nn.Param.Steps, so between
// two optimizer steps Forward is a pure function of (graph, features).
// Forward returns a matrix owned by the encoder, valid until its next
// Forward.
type SAGE struct {
	layers []*sageLayer
	// P is the per-node neighbour sample size p (§5.3.2); 0 = all.
	P    int
	rng  *rand.Rand
	perm []int // permutation scratch for sampling
	// draws counts draw calls, so a RowCache can tell that the samples
	// it was filled with are gone.
	draws int
	// ForwardDirty's scratch: a node mark per row, the rows to compute,
	// their aggregated inputs and pre-activations, and a ReLU of its own
	// so Forward's activations, which Backward reads, stay untouched.
	mark   []bool
	rows   []int
	agg, z *nn.Mat
	relu   nn.ReLU
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

// draw samples l's neighbours for g at its weights' current version,
// node by node in ID order, and lists each node's users.
func (s *SAGE) draw(l *sageLayer, g *Graph) {
	if cap(l.samples) < g.N {
		l.samples = make([][]int, g.N)
	}
	s.draws++
	l.g, l.drawnAt = g, l.w.Steps
	l.samples, l.sampled = l.samples[:g.N], l.sampled[:0]
	for i, neigh := range g.Neigh {
		if len(s.perm) < len(neigh) {
			s.perm = make([]int, len(neigh))
		}
		// Each node's samples are a capped window of one backing store;
		// a window cut before the store grew keeps its values.
		start := len(l.sampled)
		l.sampled = sampleInto(l.sampled, neigh, s.P, s.rng, s.perm)
		l.samples[i] = l.sampled[start:len(l.sampled):len(l.sampled)]
	}
	// The reverse lists, counted then filled with userOff[j] as node j's
	// cursor, which leaves it at node j+1's start; shifting by one
	// restores the starts.
	l.userOff = growInts(l.userOff, g.N+1)
	clear(l.userOff)
	for _, j := range l.sampled {
		l.userOff[j+1]++
	}
	for j := 1; j <= g.N; j++ {
		l.userOff[j] += l.userOff[j-1]
	}
	l.users = growInts(l.users, len(l.sampled))
	for i, smp := range l.samples {
		for _, j := range smp {
			l.users[l.userOff[j]] = i
			l.userOff[j]++
		}
	}
	copy(l.userOff[1:], l.userOff[:g.N])
	l.userOff[0] = 0
}

// growInts returns buf resliced to n values, reallocating only when its
// capacity is short.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// sync draws the samples of every layer that is stale for g, in layer
// order: the draws Forward makes, since it checks each layer before
// computing it and computing draws nothing.
func (s *SAGE) sync(g *Graph, x *nn.Mat) {
	if x.R != g.N {
		panic(fmt.Sprintf("gnn: %d feature rows for %d nodes", x.R, g.N))
	}
	for _, l := range s.layers {
		if l.g != g || l.drawnAt != l.w.Steps {
			s.draw(l, g)
		}
	}
}

// aggregate writes the mean of h's row i and the rows of i's samples
// into dst.
func (l *sageLayer) aggregate(dst []float64, h *nn.Mat, i int) {
	copy(dst, h.Row(i))
	for _, j := range l.samples[i] {
		for c, v := range h.Row(j) {
			dst[c] += v
		}
	}
	cnt := float64(len(l.samples[i]) + 1)
	for c := range dst {
		dst[c] /= cnt
	}
}

// Forward implements Encoder.
func (s *SAGE) Forward(g *Graph, x *nn.Mat) *nn.Mat {
	s.sync(g, x)
	h := x
	for _, l := range s.layers {
		l.in = h
		l.agg = nn.Reuse(l.agg, g.N, h.C)
		for i := 0; i < g.N; i++ {
			l.aggregate(l.agg.Row(i), h, i)
		}
		l.z = nn.Reuse(l.z, g.N, l.w.Val.C)
		h = l.relu.Forward(nn.MatMulInto(l.z, l.agg, l.w.Val))
	}
	return h
}

// RowCache is what SAGE.ForwardDirty keeps of one input between calls:
// a copy of the features it last encoded and the full output of every
// layer but the last, for one graph and one draw of the samples. A
// RowCache serves one SAGE; the zero value is empty.
type RowCache struct {
	g     *Graph
	draws int
	x     *nn.Mat
	hs    []*nn.Mat
}

// Reset empties c, so its next ForwardDirty computes every row.
func (c *RowCache) Reset() { c.g = nil }

// ForwardDirty computes the rows of Forward(g, x) that can differ from
// the output of the call that last filled c, and fills c for the next
// call. A node's output row reads only its own input row and its
// samples' in every layer, and MatMulInto, ReLU and the mean are
// row-local, so each returned row is bit for bit the row Forward
// returns. The rows computed are the nodes whose features changed
// (bitwise) and, layer by layer, every node whose samples include a
// node computed in the layer below; when c is empty or was filled for
// another graph, input width or draw of the samples, they are all
// nodes. It makes Forward's rng draws.
//
// out's row k is node rows[k]'s embedding, rows ascending; out is nil
// when no row needs computing. Both are owned by s and valid until its
// next ForwardDirty. full reports that every row was computed because
// c was empty or stale.
func (s *SAGE) ForwardDirty(c *RowCache, g *Graph, x *nn.Mat) (out *nn.Mat, rows []int, full bool) {
	s.sync(g, x)
	full = c.g != g || c.draws != s.draws || c.x.C != x.C
	if full {
		c.g, c.draws = g, s.draws
		c.x = nn.Reuse(c.x, x.R, x.C)
		if len(c.hs) != len(s.layers)-1 {
			c.hs = make([]*nn.Mat, len(s.layers)-1)
		}
	}
	s.rows = s.rows[:0]
	for i := 0; i < g.N; i++ {
		if xi, ci := x.Row(i), c.x.Row(i); full || !sameBits(xi, ci) {
			copy(ci, xi)
			s.rows = append(s.rows, i)
		}
	}
	if len(s.mark) < g.N {
		s.mark = make([]bool, g.N)
	}
	h, last := c.x, len(s.layers)-1
	for li, l := range s.layers {
		if len(s.rows) == 0 {
			return nil, s.rows, full
		}
		if !full {
			// The changed input rows and every node that samples one,
			// collected in ascending order through the marks.
			for _, j := range s.rows {
				s.mark[j] = true
				for _, i := range l.users[l.userOff[j]:l.userOff[j+1]] {
					s.mark[i] = true
				}
			}
			s.rows = s.rows[:0]
			for i, m := range s.mark[:g.N] {
				if m {
					s.rows = append(s.rows, i)
					s.mark[i] = false
				}
			}
		}
		s.agg = nn.Reuse(s.agg, len(s.rows), h.C)
		for k, i := range s.rows {
			l.aggregate(s.agg.Row(k), h, i)
		}
		s.z = nn.Reuse(s.z, len(s.rows), l.w.Val.C)
		out = s.relu.Forward(nn.MatMulInto(s.z, s.agg, l.w.Val))
		if li == last {
			break
		}
		c.hs[li] = nn.Reuse(c.hs[li], g.N, out.C)
		for k, i := range s.rows {
			copy(c.hs[li].Row(i), out.Row(k))
		}
		h = c.hs[li]
	}
	return out, s.rows, full
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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
			inv := 1.0 / float64(len(l.samples[i])+1)
			src := dAgg.Row(i)
			self := dIn.Row(i)
			for c, v := range src {
				self[c] += float64(v * inv)
			}
			for _, j := range l.samples[i] {
				dst := dIn.Row(j)
				for c, v := range src {
					dst[c] += float64(v * inv)
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
	// Per-layer kernel results, reused across calls: the pre-activation
	// ÂHW, the per-call weight gradient and ∂L/∂(ÂH).
	zs, dws, dAggs []*nn.Mat
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
	g.zs, g.dws, g.dAggs = make([]*nn.Mat, len(g.ws)), make([]*nn.Mat, len(g.ws)), make([]*nn.Mat, len(g.ws))
	return g
}

// Params implements Encoder.
func (g *GCN) Params() []*nn.Param { return g.ws }

func (g *GCN) propagate(gr *Graph, h *nn.Mat) *nn.Mat {
	out := nn.NewMat(h.R, h.C)
	for i := 0; i < gr.N; i++ {
		di := g.norm[i]
		row := out.Row(i)
		for c, v := range h.Row(i) {
			row[c] += float64(v * di * di) // self loop
		}
		for _, j := range gr.Neigh[i] {
			dj := g.norm[j]
			for c, v := range h.Row(j) {
				row[c] += float64(v * di * dj)
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
		w := g.ws[i].Val
		g.zs[i] = nn.Reuse(g.zs[i], agg.R, w.C)
		h = g.relus[i].Forward(nn.MatMulInto(g.zs[i], agg, w))
	}
	return h
}

// Backward implements Encoder. Â is symmetric, so the adjoint of the
// propagation is the propagation itself.
func (g *GCN) Backward(dOut *nn.Mat) {
	d := dOut
	for li := len(g.ws) - 1; li >= 0; li-- {
		dz := g.relus[li].Backward(d)
		w := g.ws[li]
		g.dws[li] = nn.Reuse(g.dws[li], w.Val.R, w.Val.C)
		nn.AddInPlace(w.Grad, nn.MatMulTransAInto(g.dws[li], g.aggs[li], dz))
		g.dAggs[li] = nn.Reuse(g.dAggs[li], dz.R, w.Val.R)
		d = g.propagate(g.g, nn.MatMulTransBInto(g.dAggs[li], dz, w.Val))
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
	// atts[l][attOff[i]:attOff[i+1]] is layer l's attention of node i
	// over itself, then its neighbours in Neigh order.
	atts   [][]float64
	attOff []int
	scores []float64 // one node's attention logits
	whs    []*nn.Mat // transformed features per layer
	// Per-layer kernel results, reused across calls: the attended sum
	// before the ReLU, the per-call weight gradient, ∂L/∂(HW) and ∂L/∂H.
	outs, dws, dWHs, dxs []*nn.Mat
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
	n := len(g.ws)
	g.atts = make([][]float64, n)
	g.whs, g.outs = make([]*nn.Mat, n), make([]*nn.Mat, n)
	g.dws, g.dWHs, g.dxs = make([]*nn.Mat, n), make([]*nn.Mat, n), make([]*nn.Mat, n)
	return g
}

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

// candidate returns node i's ci-th attention candidate: itself, then
// its neighbours.
func candidate(gr *Graph, i, ci int) int {
	if ci == 0 {
		return i
	}
	return gr.Neigh[i][ci-1]
}

// Forward implements Encoder.
func (g *GAT) Forward(gr *Graph, x *nn.Mat) *nn.Mat {
	if x.R != gr.N {
		panic("gnn: GAT feature rows mismatch")
	}
	g.g = gr
	g.ins = g.ins[:0]
	g.attOff = growInts(g.attOff, gr.N+1)
	g.attOff[0] = 0
	for i, neigh := range gr.Neigh {
		g.attOff[i+1] = g.attOff[i] + len(neigh) + 1
	}
	h := x
	for li := range g.ws {
		g.ins = append(g.ins, h)
		w := g.ws[li].Val
		g.whs[li] = nn.Reuse(g.whs[li], h.R, w.C)
		wh := nn.MatMulInto(g.whs[li], h, w)
		g.outs[li] = nn.Reuse(g.outs[li], gr.N, wh.C)
		out := g.outs[li]
		out.Zero()
		g.atts[li] = grow(g.atts[li], g.attOff[gr.N])
		avec := g.as[li].Val.Data
		d := wh.C
		for i := 0; i < gr.N; i++ {
			alpha := g.atts[li][g.attOff[i]:g.attOff[i+1]]
			g.scores = grow(g.scores, len(alpha))
			for ci := range alpha {
				j := candidate(gr, i, ci)
				s := 0.0
				for c := 0; c < d; c++ {
					s += float64(avec[c] * wh.At(i, c))
					s += float64(avec[d+c] * wh.At(j, c))
				}
				g.scores[ci] = leaky(s)
			}
			nn.SoftmaxRowInto(alpha, g.scores, nil)
			row := out.Row(i)
			for ci, a := range alpha {
				for c, v := range wh.Row(candidate(gr, i, ci)) {
					row[c] += float64(a * v)
				}
			}
		}
		h = g.relus[li].Forward(out)
	}
	return h
}

// grow returns buf resliced to n values, reallocating only when its
// capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Backward implements Encoder (value path only; attention coefficients
// fixed).
func (g *GAT) Backward(dOut *nn.Mat) {
	d := dOut
	for li := len(g.ws) - 1; li >= 0; li-- {
		dz := g.relus[li].Backward(d)
		wh := g.whs[li]
		// dWH[j] = sum over i of att_i[j] * dz[i]
		g.dWHs[li] = nn.Reuse(g.dWHs[li], wh.R, wh.C)
		dWH := g.dWHs[li]
		dWH.Zero()
		for i := 0; i < g.g.N; i++ {
			src := dz.Row(i)
			for ci, a := range g.atts[li][g.attOff[i]:g.attOff[i+1]] {
				dst := dWH.Row(candidate(g.g, i, ci))
				for c, v := range src {
					dst[c] += float64(a * v)
				}
			}
		}
		w := g.ws[li]
		g.dws[li] = nn.Reuse(g.dws[li], w.Val.R, w.Val.C)
		nn.AddInPlace(w.Grad, nn.MatMulTransAInto(g.dws[li], g.ins[li], dWH))
		g.dxs[li] = nn.Reuse(g.dxs[li], dWH.R, w.Val.R)
		d = nn.MatMulTransBInto(g.dxs[li], dWH, w.Val)
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
