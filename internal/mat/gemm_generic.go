//go:build !amd64 || purego

package mat

// haveSIMD is false on builds without the assembly micro-kernels:
// KernelSIMD then runs mulBlockUnrolled, the pure-Go register tile.
const haveSIMD = false

// haveAVX512 is false likewise, and useZMM, which picks the assembly
// tiles' width where they exist, selects nothing.
const haveAVX512 = false

var useZMM = false

// haveVNNI and useInt8 are false likewise: the int8 filter runs only in
// front of the ZMM tile.
const haveVNNI = false

var useInt8 = false

func mulPanelSIMD(dst, r, s *Matrix, rLo, rHi, blockCols int) {
	panic("mat: no SIMD kernel in this build")
}

func tileGE(tile *scanTile, r *float32, rows, d int, panel *float32, left int, bound, a, b *float32, first int) ([2]uint64, int, int) {
	panic("mat: no SIMD kernel in this build")
}

func suffixFactors(out []float32, m *Matrix, lo, hi int) {
	panic("mat: no SIMD kernel in this build")
}

func packPanelZMM(panel, s *float32, d, cols int) {
	panic("mat: no SIMD kernel in this build")
}

func int8Stats(x *float32, d, n int, out *float32) {
	panic("mat: no SIMD kernel in this build")
}

func int8Quant(x *float32, d, n int, inv *float32, dst *byte, rowStep, groupStep, stride int, flip uint32, sums *int32) {
	panic("mat: no SIMD kernel in this build")
}

func int8TileGE(r *byte, ldr int, panel *byte, groups int, corr *int32, col, row, bound *float32) uint32 {
	panic("mat: no SIMD kernel in this build")
}

func int8TileEst(r *byte, ldr int, panel *byte, groups int, corr *int32, col, row, bound *float32, admit *uint32, est *float32, ups *float32, cols, rows *int32, j0, n0 int) (uint64, uint64, int) {
	panic("mat: no SIMD kernel in this build")
}

func dotPairs(dst, r, s *float32, ri, sj *int32, d, n int) {
	panic("mat: no SIMD kernel in this build")
}
