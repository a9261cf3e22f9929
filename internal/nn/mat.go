// Package nn is the neural-network substrate replacing PyTorch for the
// learning components of Tango (DCG-BE's GraphSAGE encoder and A2C
// actor/critic, plus the GNN-SAC and GCN/GAT ablation baselines). It
// provides dense matrices, fully-connected layers with manual
// backpropagation, ReLU activations, row-wise softmax with action
// masking, Xavier initialization and the Adam optimizer with the paper's
// hyperparameters (lr = 2e-4).
//
// The product kernels (MatMulInto, MatMulTransAInto, MatMulTransBInto)
// write into caller-owned matrices and compute every output element as
// the plain left-to-right sum of products, each product rounded before
// it is added: the Go loops write every such product as float64(a*b),
// an explicit conversion the compiler may not fuse into a multiply-add
// on any architecture. On amd64 CPUs with AVX2, detected once at package
// initialization, the row kernel behind MatMulInto and MatMulTransAInto
// runs 16 output columns at a time in assembly with the same operations
// in the same order (multiply, then add; never a fused multiply-add),
// so its results are bit-identical to the Go loops that run elsewhere.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	Data []float64
}

// NewMat allocates an R×C zero matrix.
func NewMat(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", r, c))
	}
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (len r*c) in a matrix without copying.
func FromSlice(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("nn: FromSlice %dx%d with %d values", r, c, len(data)))
	}
	return &Mat{R: r, C: c, Data: data}
}

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i,j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Zero clears the matrix in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// tbRow returns row j of a row-major matrix with kc columns, sliced to
// exactly kc values so indexing by a kc-long row's positions needs no
// bounds check.
func tbRow(data []float64, j, kc int) []float64 {
	return data[j*kc:][:kc:kc]
}

// Reuse returns m when it is already r×c, otherwise a new zero r×c
// matrix. A reused m keeps its contents. Layers keep their results in
// matrices obtained this way, so a steady-state call allocates nothing.
func Reuse(m *Mat, r, c int) *Mat {
	if m != nil && m.R == r && m.C == c {
		return m
	}
	return NewMat(r, c)
}

func checkInto(op string, out *Mat, r, c int, a, b *Mat) {
	if out.R != r || out.C != c {
		panic(fmt.Sprintf("nn: %s %dx%d by %dx%d into %dx%d", op, a.R, a.C, b.R, b.C, out.R, out.C))
	}
}

// nzChunk bounds the stack scratch that holds the non-zero terms of one
// output row; longer rows are processed in chunks.
const nzChunk = 256

// The Into kernels below compute every output element as the textbook
// left-to-right sum: starting from +0, k ascending, each term a product
// rounded before it is added, and — for MatMulInto and MatMulTransAInto
// — with the terms whose a-value is exactly zero left out. They only
// reorder the loops around that sum, gathering the non-zero a-values of
// an output row once and keeping the partial sums of adjacent outputs
// in registers or vector lanes, so their results are bit-identical to
// the plain triple loops (the package tests keep those as references)
// for every input, NaN and ±Inf included.

// MatMulInto writes a × b into out, which must be a.R×b.C and must not
// alias a or b, and returns out.
func MatMulInto(out, a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	checkInto("matmul", out, a.R, b.C, a, b)
	var off [nzChunk]int
	var val [nzChunk]float64
	for i := 0; i < a.R; i++ {
		orow := out.Row(i)
		n, first := 0, true
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			off[n], val[n] = k*b.C, av
			if n++; n == nzChunk {
				accumRow(orow, off[:n], val[:n], b.Data, first)
				n, first = 0, false
			}
		}
		if n > 0 || first {
			accumRow(orow, off[:n], val[:n], b.Data, first)
		}
	}
	return out
}

// MatMulTransAInto writes aᵀ × b into out, which must be a.C×b.C and
// must not alias a or b, and returns out.
func MatMulTransAInto(out, a, b *Mat) *Mat {
	if a.R != b.R {
		panic(fmt.Sprintf("nn: matmulTA %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	checkInto("matmulTA", out, a.C, b.C, a, b)
	var off [nzChunk]int
	var val [nzChunk]float64
	for i := 0; i < a.C; i++ {
		orow := out.Row(i)
		n, first := 0, true
		for k := 0; k < a.R; k++ {
			av := a.Data[k*a.C+i]
			if av == 0 {
				continue
			}
			off[n], val[n] = k*b.C, av
			if n++; n == nzChunk {
				accumRow(orow, off[:n], val[:n], b.Data, first)
				n, first = 0, false
			}
		}
		if n > 0 || first {
			accumRow(orow, off[:n], val[:n], b.Data, first)
		}
	}
	return out
}

// accumRow sets every orow[j] to s + Σ_t val[t]·bd[off[t]+j], summed t
// ascending, where s is +0 when first is set and orow[j] otherwise.
// Where the CPU has AVX2, whole 16-column blocks go to the vector
// kernel accum16, which computes each column's sum with the same
// operations in the same order as accumRowGeneric, four columns to a
// register; the remaining columns stay on accumRowGeneric.
func accumRow(orow []float64, off []int, val []float64, bd []float64, first bool) {
	if blk := len(orow) &^ 15; useAVX2 && blk > 0 && len(off) > 0 {
		// accum16 reads bd[off[t] : off[t]+blk] unchecked; fail the way
		// the Go loops would instead of reading outside bd.
		lim := len(bd) - len(orow)
		for _, o := range off {
			if o < 0 || o > lim {
				panic(fmt.Sprintf("nn: accumRow offset %d outside %d values for %d columns", o, len(bd), len(orow)))
			}
		}
		accum16(orow[:blk], bd, off, val[:len(off)], first)
		if blk == len(orow) {
			return
		}
		orow, bd = orow[blk:], bd[blk:]
	}
	accumRowGeneric(orow, off, val, bd, first)
}

// accumRowGeneric is accumRow in plain Go: the path on CPUs without
// AVX2, for the columns past the last 16-column block, and the
// reference the vector kernel is tested against.
func accumRowGeneric(orow []float64, off []int, val []float64, bd []float64, first bool) {
	val = val[:len(off)]
	j := 0
	for ; j+8 <= len(orow); j += 8 {
		o := orow[j : j+8 : j+8]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if !first {
			s0, s1, s2, s3, s4, s5, s6, s7 = o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		}
		for t, ob := range off {
			av := val[t]
			bk := bd[ob+j : ob+j+8 : ob+j+8]
			s0 += float64(av * bk[0])
			s1 += float64(av * bk[1])
			s2 += float64(av * bk[2])
			s3 += float64(av * bk[3])
			s4 += float64(av * bk[4])
			s5 += float64(av * bk[5])
			s6 += float64(av * bk[6])
			s7 += float64(av * bk[7])
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < len(orow); j++ {
		var s float64
		if !first {
			s = orow[j]
		}
		for t, ob := range off {
			s += float64(val[t] * bd[ob+j])
		}
		orow[j] = s
	}
}

// MatMulTransBInto writes a × bᵀ into out, which must be a.R×b.R and
// must not alias a or b, and returns out.
func MatMulTransBInto(out, a, b *Mat) *Mat {
	return matMulTransBMasked(out, a, b, nil)
}

// matMulTransBMasked is MatMulTransBInto computing only the elements
// whose mask entry (row-major over out) is set, and writing +0 to the
// rest: the product followed by ReLU.Backward's gate. A nil mask keeps
// every element.
func matMulTransBMasked(out, a, b *Mat, mask []bool) *Mat {
	if a.C != b.C {
		panic(fmt.Sprintf("nn: matmulTB %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	checkInto("matmulTB", out, a.R, b.R, a, b)
	if mask != nil && len(mask) != a.R*b.R {
		panic(fmt.Sprintf("nn: matmulTB mask of %d for %dx%d", len(mask), a.R, b.R))
	}
	var js [nzChunk]int
	kc := a.C
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)[:kc:kc]
		orow := out.Row(i)
		var mrow []bool
		if mask != nil {
			mrow = mask[i*b.R : (i+1)*b.R]
		}
		for c0 := 0; c0 < b.R; c0 += nzChunk {
			// Gather the output columns to compute; the others are +0.
			n := 0
			for j := c0; j < min(c0+nzChunk, b.R); j++ {
				if mrow != nil && !mrow[j] {
					orow[j] = 0
					continue
				}
				js[n] = j
				n++
			}
			t := 0
			for ; t+8 <= n; t += 8 {
				var s0, s1, s2, s3, s4, s5, s6, s7 float64
				b0, b1 := tbRow(b.Data, js[t], kc), tbRow(b.Data, js[t+1], kc)
				b2, b3 := tbRow(b.Data, js[t+2], kc), tbRow(b.Data, js[t+3], kc)
				b4, b5 := tbRow(b.Data, js[t+4], kc), tbRow(b.Data, js[t+5], kc)
				b6, b7 := tbRow(b.Data, js[t+6], kc), tbRow(b.Data, js[t+7], kc)
				for k, av := range arow {
					s0 += float64(av * b0[k])
					s1 += float64(av * b1[k])
					s2 += float64(av * b2[k])
					s3 += float64(av * b3[k])
					s4 += float64(av * b4[k])
					s5 += float64(av * b5[k])
					s6 += float64(av * b6[k])
					s7 += float64(av * b7[k])
				}
				orow[js[t]], orow[js[t+1]], orow[js[t+2]], orow[js[t+3]] = s0, s1, s2, s3
				orow[js[t+4]], orow[js[t+5]], orow[js[t+6]], orow[js[t+7]] = s4, s5, s6, s7
			}
			for ; t < n; t++ {
				bj := tbRow(b.Data, js[t], kc)
				s := 0.0
				for k, av := range arow {
					s += float64(av * bj[k])
				}
				orow[js[t]] = s
			}
		}
	}
	return out
}

// AddInPlace adds b into a element-wise.
func AddInPlace(a, b *Mat) {
	if a.R != b.R || a.C != b.C {
		panic("nn: AddInPlace shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// MeanRowsInto writes the 1×C mean of the rows of m into out and
// returns it.
func MeanRowsInto(out, m *Mat) *Mat {
	if out.R != 1 || out.C != m.C {
		panic("nn: MeanRowsInto shape mismatch")
	}
	out.Zero()
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	inv := 1.0 / float64(m.R)
	for j := range out.Data {
		out.Data[j] *= inv
	}
	return out
}

// SoftmaxRow computes a numerically-stable softmax of one logit row.
// mask (optional) zeroes out entries where mask[i] == false before
// normalization — the "policy context filtering" mechanism of §5.3.2.
// If every entry is masked, the result is uniform over all entries.
func SoftmaxRow(logits []float64, mask []bool) []float64 {
	return SoftmaxRowInto(make([]float64, len(logits)), logits, mask)
}

// SoftmaxRowInto is SoftmaxRow writing into out (len(logits) values,
// which may alias logits).
func SoftmaxRowInto(out, logits []float64, mask []bool) []float64 {
	if len(out) != len(logits) {
		panic("nn: SoftmaxRowInto length mismatch")
	}
	maxv := math.Inf(-1)
	any := false
	for i, v := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		any = true
		if v > maxv {
			maxv = v
		}
	}
	if !any {
		u := 1.0 / float64(len(logits))
		for i := range out {
			out[i] = u
		}
		return out
	}
	sum := 0.0
	for i, v := range logits {
		if mask != nil && !mask[i] {
			out[i] = 0
			continue
		}
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// XavierInit fills m with Uniform(-a, a), a = sqrt(6/(fanIn+fanOut)).
func XavierInit(m *Mat, rng *rand.Rand) {
	a := math.Sqrt(6.0 / float64(m.R+m.C))
	for i := range m.Data {
		m.Data[i] = (float64(rng.Float64())*2 - 1) * a
	}
}
