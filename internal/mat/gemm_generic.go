//go:build !amd64 || purego

package mat

// haveSIMD is false on builds without the assembly micro-kernels:
// KernelSIMD then runs mulBlockUnrolled, the pure-Go register tile.
const haveSIMD = false

// haveAVX512 is false likewise, and useZMM, which picks the assembly
// tiles' width where they exist, selects nothing.
const haveAVX512 = false

var useZMM = false

func mulPanelSIMD(dst, r, s *Matrix, rLo, rHi, blockCols int) {
	panic("mat: no SIMD kernel in this build")
}

func tileGE(tile *scanTile, r *float32, rows, d int, panel *float32, left int, bound, a, b *float32, first int) ([2]uint64, int, int) {
	panic("mat: no SIMD kernel in this build")
}

func suffixFactors(out []float32, m *Matrix, lo, hi int) {
	panic("mat: no SIMD kernel in this build")
}
