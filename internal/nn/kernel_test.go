package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// sameBits reports whether x and y are the same float64: equal bit
// patterns, or both NaN (NaN payloads are not compared).
func sameBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

func assertSameMat(t *testing.T, what string, got, want *Mat) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// oracleMat draws an r×c matrix in one of several regimes: dense
// Gaussian, ReLU-sparse (about half exact zeros, some -0), rows that
// are entirely zero, and sprinkled NaN/±Inf.
func oracleMat(rng *rand.Rand, r, c int, regime int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		v := rng.NormFloat64()
		switch regime {
		case 1:
			if v < 0 {
				v = 0
				if rng.Intn(8) == 0 {
					v = math.Copysign(0, -1)
				}
			}
		case 3:
			switch rng.Intn(40) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			case 3, 4, 5, 6, 7, 8:
				v = 0
			}
		}
		m.Data[i] = v
	}
	if regime == 2 {
		for i := 0; i < r; i++ {
			if rng.Intn(2) == 0 {
				row := m.Row(i)
				for j := range row {
					row[j] = 0
				}
			}
		}
	}
	return m
}

// dirty returns an r×c matrix full of garbage, so an Into kernel that
// fails to overwrite an element shows up in the comparison.
func dirty(r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// oracleDims returns a shape dimension: mostly small, sometimes 1, and
// sometimes past the kernels' chunk size.
func oracleDims(rng *rand.Rand) int {
	switch rng.Intn(10) {
	case 0:
		return 1
	case 1:
		return nzChunk + 1 + rng.Intn(40)
	default:
		return 1 + rng.Intn(40)
	}
}

func TestIntoKernelsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n, k, m := oracleDims(rng), oracleDims(rng), oracleDims(rng)
		if trial%5 == 0 {
			m = 1 // 1-column outputs (the actor's logit layer)
		}
		ra, rb := rng.Intn(4), rng.Intn(4)

		a, b := oracleMat(rng, n, k, ra), oracleMat(rng, k, m, rb)
		assertSameMat(t, "MatMulInto", MatMulInto(dirty(n, m), a, b), matMul(a, b))

		at, bt := oracleMat(rng, k, n, ra), oracleMat(rng, k, m, rb)
		assertSameMat(t, "MatMulTransAInto", MatMulTransAInto(dirty(n, m), at, bt), matMulTransA(at, bt))

		bb := oracleMat(rng, m, k, rb)
		assertSameMat(t, "MatMulTransBInto", MatMulTransBInto(dirty(n, m), a, bb), matMulTransB(a, bb))

		// The gated kernel against MatMulTransB followed by ReLU.Backward.
		var r ReLU
		r.Forward(oracleMat(rng, n, m, 0))
		want := r.Backward(matMulTransB(a, bb))
		got := matMulTransBMasked(dirty(n, m), a, bb, r.mask)
		assertSameMat(t, "matMulTransBMasked", got, want)
	}
}

// oracleVec is n values drawn like oracleMat's (n may be 0).
func oracleVec(rng *rand.Rand, n, regime int) []float64 {
	if n == 0 {
		return nil
	}
	return oracleMat(rng, 1, n, regime).Data
}

// assertAccumRowMatchesGeneric runs accumRow and accumRowGeneric on
// copies of orow and fails unless every column agrees bit for bit.
func assertAccumRowMatchesGeneric(t *testing.T, orow []float64, off []int, val, bd []float64, first bool) {
	t.Helper()
	got, want := slices.Clone(orow), slices.Clone(orow)
	accumRow(got, off, val, bd, first)
	accumRowGeneric(want, off, val, bd, first)
	for j := range want {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("%d columns, %d terms, first=%v: [%d] = %v (%#x), want %v (%#x)",
				len(orow), len(off), first, j, got[j], math.Float64bits(got[j]),
				want[j], math.Float64bits(want[j]))
		}
	}
}

// TestAccumRowMatchesGeneric compares accumRow, which takes the AVX2
// kernel for whole 16-column blocks where the CPU has it, with the Go
// loops on every column count up to 80 (blocks, partial blocks and
// tails), term counts from 0 to past nzChunk, both starting modes and
// every oracleMat regime, at unaligned offsets into bd.
func TestAccumRowMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for cols := 0; cols <= 80; cols++ {
		for _, terms := range []int{0, 1, 2, 3, 7, 16, 33, nzChunk, nzChunk + 9} {
			for _, first := range []bool{true, false} {
				for regime := 0; regime < 4; regime++ {
					bd := oracleVec(rng, cols+2*terms+rng.Intn(5), regime)
					off := make([]int, terms)
					for i := range off {
						off[i] = rng.Intn(len(bd) - cols + 1)
					}
					val := oracleVec(rng, terms, regime)
					assertAccumRowMatchesGeneric(t, oracleVec(rng, cols, regime), off, val, bd, first)
				}
			}
		}
	}
}

// FuzzAccumRow is TestAccumRowMatchesGeneric over fuzzed bit patterns:
// data, read as big-endian 8-byte words (cycling), supplies bd, the
// offsets, val and orow, so subnormals, ±0, ±Inf, NaN and overflow all
// occur.
func FuzzAccumRow(f *testing.F) {
	seed := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(16), uint16(3), true, seed(1.5, -2, 0.25, 3))
	f.Add(uint8(33), uint16(17), false, seed(math.Copysign(0, -1), 1e-310, -7.5, 0))
	f.Add(uint8(47), uint16(nzChunk+1), false, seed(math.Inf(1), 0, math.NaN(), -1, 2))
	f.Fuzz(func(t *testing.T, cols uint8, terms uint16, first bool, data []byte) {
		c, n := int(cols)%81, int(terms)%(nzChunk+40)
		word := func(i int) uint64 {
			var w uint64
			for k := 0; k < 8 && len(data) > 0; k++ {
				w = w<<8 | uint64(data[(8*i+k)%len(data)])
			}
			return w
		}
		bd := make([]float64, c+2*n+1)
		for i := range bd {
			bd[i] = math.Float64frombits(word(i))
		}
		off, val := make([]int, n), make([]float64, n)
		for i := range off {
			off[i] = int(word(len(bd)+i) % uint64(len(bd)-c+1))
			val[i] = math.Float64frombits(word(len(bd) + n + i))
		}
		orow := make([]float64, c)
		for i := range orow {
			orow[i] = math.Float64frombits(word(len(bd) + 2*n + i))
		}
		assertAccumRowMatchesGeneric(t, orow, off, val, bd, first)
	})
}

// TestAVX2KernelSelected fails when the kernel's CPU detection disagrees
// with the operating system's report: on amd64 Linux, accumRow must take
// the AVX2 path exactly when /proc/cpuinfo lists the avx2 flag, so a
// detection bug cannot silently keep the fast path off (or turn it on
// where it would fault).
func TestAVX2KernelSelected(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if useAVX2 {
			t.Fatalf("useAVX2 set on %s", runtime.GOARCH)
		}
		t.Skipf("no AVX2 kernel on %s", runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read the CPU flags: %v", err)
	}
	want := false
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			want = slices.Contains(strings.Fields(line), "avx2")
			break
		}
	}
	if useAVX2 != want {
		t.Fatalf("useAVX2 = %v, but /proc/cpuinfo lists avx2: %v", useAVX2, want)
	}
}

func TestIntoKernelsRejectBadOut(t *testing.T) {
	a, b := NewMat(2, 3), NewMat(3, 4)
	for name, fn := range map[string]func(){
		"mm":   func() { MatMulInto(NewMat(2, 3), a, b) },
		"ta":   func() { MatMulTransAInto(NewMat(2, 4), a, NewMat(2, 4)) },
		"tb":   func() { MatMulTransBInto(NewMat(2, 2), a, NewMat(4, 3)) },
		"mask": func() { matMulTransBMasked(NewMat(2, 4), a, NewMat(4, 3), make([]bool, 7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on bad output shape", name)
				}
			}()
			fn()
		}()
	}
}

func TestSoftmaxRowIntoMatchesSoftmaxRow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		logits := make([]float64, n)
		mask := make([]bool, n)
		for i := range logits {
			logits[i] = rng.NormFloat64() * 4
			mask[i] = rng.Intn(3) > 0
		}
		if trial%7 == 0 {
			mask = nil
		}
		want := SoftmaxRow(logits, mask)
		out := make([]float64, n)
		for i := range out {
			out[i] = math.NaN()
		}
		got := SoftmaxRowInto(out, logits, mask)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("trial %d: [%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// unfusedBackward runs m's layers backward one by one, with ReLU.Backward
// as its own step: the path MLP.Backward fuses.
func unfusedBackward(m *MLP, dOut *Mat) *Mat {
	for i := len(m.layers) - 1; i >= 0; i-- {
		dOut = m.layers[i].Backward(dOut)
	}
	return dOut
}

// refForward recomputes m's forward with the allocating reference
// kernels.
func refForward(m *MLP, x *Mat) *Mat {
	for _, l := range m.layers {
		switch l := l.(type) {
		case *Dense:
			y := matMul(x, l.W.Val)
			for i := 0; i < y.R; i++ {
				row := y.Row(i)
				for j, b := range l.B.Val.Data {
					row[j] += b
				}
			}
			x = y
		case *ReLU:
			y := x.Clone()
			for i, v := range y.Data {
				if !(v > 0) {
					y.Data[i] = 0
				}
			}
			x = y
		}
	}
	return x
}

func TestMLPFusedBackwardMatchesUnfused(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		sizes := []int{1 + trial%9, 40, 24, 8, 1 + trial%3}
		fused := NewMLP(rand.New(rand.NewSource(int64(trial))), sizes...)
		plain := NewMLP(rand.New(rand.NewSource(int64(trial))), sizes...)
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		rows := 1 + rng.Intn(20)
		x := oracleMat(rng, rows, sizes[0], trial%3)
		dOut := oracleMat(rng, rows, sizes[len(sizes)-1], 2)
		if trial%10 == 9 {
			dOut.Data[0] = math.Inf(1)
		}
		// Two steps, so the second runs on reused, dirty buffers.
		for step := 0; step < 2; step++ {
			yf, yp := fused.Forward(x), plain.Forward(x)
			assertSameMat(t, "forward", yf, refForward(plain, x))
			assertSameMat(t, "forward fused/plain", yf, yp)
			assertSameMat(t, "dX", fused.Backward(dOut), unfusedBackward(plain, dOut))
			for i, p := range fused.Params() {
				assertSameMat(t, p.Name+" grad", p.Grad, plain.Params()[i].Grad)
			}
		}
	}
}

func TestMLPSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, 32, 256, 128, 32, 1)
	x := oracleMat(rng, 16, 32, 1)
	dOut := oracleMat(rng, 16, 1, 0)
	m.Forward(x)
	m.Backward(dOut) // size the layer buffers
	if n := testing.AllocsPerRun(50, func() { m.Forward(x) }); n != 0 {
		t.Fatalf("steady-state MLP.Forward allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { m.Backward(dOut) }); n != 0 {
		t.Fatalf("steady-state MLP.Backward allocates %.1f/op, want 0", n)
	}
}

func BenchmarkMLPBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 32, 256, 128, 32, 1)
	x := oracleMat(rng, 16, 32, 1)
	dOut := oracleMat(rng, 16, 1, 0)
	m.Forward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Backward(dOut)
	}
}
