package nn

// useAVX2 selects the vector kernel in accumRow. It is fixed at package
// initialization from what the CPU and the operating system support.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 (CPUID leaf 7, EBX
// bit 5) and the operating system saves the YMM registers across
// context switches (OSXSAVE set, and XCR0 enabling both the XMM and
// the YMM state).
func hasAVX2() bool {
	maxLeaf, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx uint32)

// xgetbv returns the low half of XCR0 (XGETBV with ECX = 0). Only call
// it when CPUID reports OSXSAVE.
func xgetbv() uint32

// accum16 is accumRow's AVX2 kernel for len(orow) a positive multiple
// of 16: for each block of 16 output columns it keeps four 4-lane
// accumulators, starts them at +0 (first) or from orow, and for t
// ascending adds the rounded product val[t]·bd[off[t]+j] with separate
// multiply and add instructions. len(val) must equal len(off), and
// every off[t]+len(orow) must be at most len(bd); it does not check.
//
//go:noescape
func accum16(orow, bd []float64, off []int, val []float64, first bool)
