//go:build !amd64

package nn

// useAVX2 is false off amd64: accumRow always runs accumRowGeneric.
const useAVX2 = false

// accum16 exists so the package and its tests build off amd64, where
// accumRow never calls it.
func accum16(orow, bd []float64, off []int, val []float64, first bool) {
	panic("nn: accum16 called without AVX2")
}
