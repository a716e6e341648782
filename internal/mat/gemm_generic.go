//go:build !amd64 || purego

package mat

// haveSIMD is false on builds without the assembly micro-kernel:
// KernelSIMD then runs mulBlockUnrolled, the pure-Go register tile.
const haveSIMD = false

func mulPanelSIMD(dst, r, s *Matrix, rLo, rHi, blockCols int) {
	panic("mat: no SIMD kernel in this build")
}
