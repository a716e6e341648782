//go:build amd64 && !purego

package mat

import "math"

//go:noescape
func gemm4x16(dst *float32, ldd int, r *float32, ldr int, panel *float32, d int)

//go:noescape
func gemm1x16(dst, r, panel *float32, d int)

//go:noescape
func gemm4x16ge(tile, r *float32, ldr int, panel *float32, d int, bound, a, b *float32, first int) (mask uint64, k int)

//go:noescape
func gemm1x16ge(tile, r, panel *float32, d int, bound *float32) uint64

// tileGE is the scan's micro-kernel: rows (4 or 1) R rows of length d at
// r against one packed panel, each cell compared with its row's bound.
// It returns the mask of qualifying cells, bit t*16+jj for row t, lane
// jj, and writes tile only when the mask is non-zero. A four-row tile
// pauses at k = first, first+16, ... <= d-16 and, given its rows' and
// columns' suffix factors a and b from first on, returns an empty mask
// and that k once no cell can still qualify; k is otherwise d.
func tileGE(tile *[4 * panelCols]float32, r *float32, rows, d int, panel, bound, a, b *float32, first int) (mask uint64, k int) {
	if rows == 4 {
		return gemm4x16ge(&tile[0], r, d, panel, d, bound, a, b, first)
	}
	return gemm1x16ge(&tile[0], r, panel, d, bound), d
}

//go:noescape
func suffixFactors4(r0, r1, r2, r3 *float32, d int, out *float32, stride int, alpha, beta float32)

// suffixFactors writes, for rows [lo, hi) of m and every checkpoint
// c = 1..nc, the factor
//
//	f = alpha*|row[16c:]| + sqrt(d*2^-23)*|row| + 2^-60
//
// such that for two rows x, y with factors a, b the product a*b is at
// least what the steps from k = 16c on can still add to their partial dot
// product, float32 rounding included (package doc, "Early exit"). Row
// lo+n's factors are at out[factorAt(nc, n, c)]; lanes past hi in the
// last group of 16 repeat the last row, which bounds their all-zero
// column too.
// Norms are summed in float32, at most 22+d/16 roundings per term, which
// alpha covers; a norm beyond float32 or a NaN component gives an
// infinite or NaN factor, and those never let a tile stop.
func suffixFactors(out []float32, m *Matrix, lo, hi int) {
	d := m.Cols()
	nc := checkpoints(d)
	alpha := float32(1 + float64(32+d/16)*0x1p-24)
	beta := float32(math.Sqrt(float64(d) * 0x1p-23))
	row := func(j int) *float32 { return &m.Data[min(j, hi-1)*d] }
	for j := lo; j < lo+(hi-lo+panelCols-1)/panelCols*panelCols; j += 4 {
		suffixFactors4(row(j), row(j+1), row(j+2), row(j+3), d, &out[factorAt(nc, j-lo, 1)], panelCols, alpha, beta)
	}
}

// peakMulAddYMM and peakMulAddZMM run the tiles' arithmetic on registers
// only, for BenchmarkPeakMulAdd to measure the ceiling the tiles are
// held against; haveAVX512 says whether the second may run.
func peakMulAddYMM(iters int)
func peakMulAddZMM(iters int)

var haveAVX512 = haveSIMD && detectAVX512()

func detectAVX512() bool {
	// XCR0 bits 5-7: the OS saves the opmask and ZMM state; leaf 7 EBX
	// bit 16: AVX-512F.
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	return xcr0&0xe6 == 0xe6 && ebx&(1<<16) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveSIMD reports whether the CPU has AVX2 and the OS saves YMM state.
var haveSIMD = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS context-switches XMM and YMM registers.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// mulPanelSIMD computes dst rows [rLo, rHi) against all of s. It walks S
// in blocks of blockCols rows (rounded to whole panels): each block is
// packed once into a small scratch that stays cache-resident while every
// R row of the panel streams past it, four rows at a time and then the
// last 1-3 through the one-row kernel. Full tiles are written straight
// into dst; the zero-padded tail panel goes through a scratch tile so no
// lane is stored out of bounds.
func mulPanelSIMD(dst, r, s *Matrix, rLo, rHi, blockCols int) {
	d, ns := r.Cols(), s.Rows()
	blockCols = max(panelCols, blockCols/panelCols*panelCols)
	packed := getPacked(blockCols * d)
	defer packedPool.Put(packed)
	var tile [4 * panelCols]float32
	for sLo := 0; sLo < ns; sLo += blockCols {
		sHi := min(sLo+blockCols, ns)
		packPanels(*packed, s, sLo, sHi)
		for i, rows := rLo, 4; i < rHi; i += rows {
			if i+4 > rHi {
				rows = 1
			}
			ri := &r.Data[i*d]
			for j0 := sLo; j0 < sHi; j0 += panelCols {
				panel := &(*packed)[(j0-sLo)*d]
				out, ldd := &dst.Data[i*ns+j0], ns
				tail := j0+panelCols > ns
				if tail {
					out, ldd = &tile[0], panelCols
				}
				if rows == 4 {
					gemm4x16(out, ldd, ri, d, panel, d)
				} else {
					gemm1x16(out, ri, panel, d)
				}
				for t := 0; tail && t < rows; t++ {
					copy(dst.Data[(i+t)*ns+j0:(i+t+1)*ns], tile[t*panelCols:])
				}
			}
		}
	}
}
