//go:build !amd64 || purego

package mat

// haveSIMD is false on builds without the assembly micro-kernels:
// KernelSIMD then runs mulBlockUnrolled, the pure-Go register tile.
const haveSIMD = false

func mulPanelSIMD(dst, r, s *Matrix, rLo, rHi, blockCols int) {
	panic("mat: no SIMD kernel in this build")
}

func tileGE(tile *[4 * panelCols]float32, r *float32, rows, d int, panel, bound, a, b *float32, first int) (uint64, int) {
	panic("mat: no SIMD kernel in this build")
}

func suffixFactors(out []float32, m *Matrix, lo, hi int) {
	panic("mat: no SIMD kernel in this build")
}
