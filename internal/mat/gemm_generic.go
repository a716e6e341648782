//go:build !amd64 || purego

package mat

import "unsafe"

// haveSIMD is false on builds without the assembly micro-kernels:
// KernelSIMD then runs mulBlockUnrolled, the pure-Go register tile.
const haveSIMD = false

// haveAVX512 is false likewise, and useZMM, which picks the assembly
// tiles' width where they exist, selects nothing.
const haveAVX512 = false

var useZMM = false

// haveVNNI and useInt8 are false likewise: the int8 filter runs only in
// front of the ZMM tile. Tests switch useInt8 on to run the candidate
// top-k on the Go forms of its kernels (topKForm).
const haveVNNI = false

var useInt8 = false

// haveAMX and useAMX are false likewise: the AMX tiles compute the int8
// filter's cells.
const haveAMX, amxAbsent = false, "no assembly kernels in this build"

var useAMX = false

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
	int8StatsGo(unsafe.Slice(x, d*n), d, n, unsafe.Slice(out, 2*n))
}

func int8Quant(x *float32, d, n int, inv *float32, dst *byte, rowStep, groupStep, stride int, flip uint32, sums *int32) {
	end := (n-1)/16*groupStep + (n-1)%16*rowStep + ((d+3)/4-1)*stride + 4 // past the last row's last group
	int8QuantGo(unsafe.Slice(x, d*n), d, n, unsafe.Slice(inv, n), unsafe.Slice(dst, end), rowStep, groupStep, stride, flip, unsafe.Slice(sums, n))
}

func int8TileGE(r *byte, ldr int, panel *byte, groups int, corr *int32, col, row, bound *float32) uint32 {
	panic("mat: no SIMD kernel in this build")
}

func int8Strip(r *byte, ldr int, panel *byte, groups int, corr *int32, pairs int, out *int32, ldo int) {
	panic("mat: no SIMD kernel in this build")
}

func topKLanes(cells *int32, ldc, pairs int, col, row *float32, admit *uint32, live, groups int, lanes *float32, k int, kth *float32) {
	panic("mat: no SIMD kernel in this build")
}

func topKList(cells *int32, ldc, pairs int, col, row *float32, admit *uint32, live int, kth *float32, ups *float32, cols, rows *int32, j0, n0, room int) (int, int) {
	panic("mat: no SIMD kernel in this build")
}

func dotPairs(dst, r, s *float32, ri, sj *int32, d, n int) {
	panic("mat: no SIMD kernel in this build")
}

func amxCells(cfg *amxConfig, r *byte, ldr int, panel *byte, pairs int, corr *int32, out *int32, ldo int) {
	panic("mat: no SIMD kernel in this build")
}

func amxKeep(cfg *amxConfig, r *byte, ldr, groups int, panel *byte, pairs int, corr *int32, col, row, bound *float32, lead, live0, live1 int, valid uint32, buf *int32, masks *uint32, keep *uint64) {
	panic("mat: no SIMD kernel in this build")
}
