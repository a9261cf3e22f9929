package nn

import "fmt"

// The allocating triple loops below are the references the Into
// kernels are tested against bit for bit: each output element is the
// left-to-right sum from +0, k ascending, skipping a-values that are
// exactly zero in matMul and matMulTransA.

// matMul returns a × b.
func matMul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.R, b.C)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// matMulTransA returns aᵀ × b.
func matMulTransA(a, b *Mat) *Mat {
	if a.R != b.R {
		panic(fmt.Sprintf("nn: matmulTA %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.C, b.C)
	for k := 0; k < a.R; k++ {
		arow, brow := a.Row(k), b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// matMulTransB returns a × bᵀ.
func matMulTransB(a, b *Mat) *Mat {
	if a.C != b.C {
		panic(fmt.Sprintf("nn: matmulTB %dx%d by %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.R, b.R)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.R; j++ {
			brow := b.Row(j)
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}
