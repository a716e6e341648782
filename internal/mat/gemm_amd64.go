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

//go:noescape
func gemm4x32zmm(dst *float32, ldd int, r *float32, ldr int, panel *float32, d int)

//go:noescape
func gemm4x32gezmm(tile, r *float32, ldr int, panel *float32, d int, bound, a, b *float32, first int) (mask0, mask1 uint64, k int)

// useZMM selects the AVX-512F tiles for four rows, gemm4x32zmm and
// gemm4x32gezmm, in place of the YMM ones wherever a block has two
// panels left: the same cells, bit for bit, over twice the columns, with
// eight accumulators in ZMM registers. It is set once from CPUID; tests
// switch it to run both widths.
var useZMM = haveAVX512

// tileGE is the scan's micro-kernel: rows (4 or 1) R rows of length d at
// r against the packed panel at panel, each cell compared with its row's
// bound. A 4-row tile on ZMM also takes the next panel when the block has
// more than 16 columns left from this one (left). It returns how many
// panels it covered and, for each, the mask of qualifying cells, bit
// t*16+jj for row t, lane jj; tile holds cell (t, jj) of panel p at
// p*64+t*16+jj, written only when some mask is non-zero. A four-row tile
// pauses at k = first, first+16, ... <= d-16 and, given its rows' and
// panels' suffix factors a and b from first on, returns empty masks and
// that k once no cell can still qualify; k is otherwise d.
func tileGE(tile *scanTile, r *float32, rows, d int, panel *float32, left int, bound, a, b *float32, first int) (mask [2]uint64, panels, k int) {
	switch {
	case rows < 4:
		return [2]uint64{gemm1x16ge(&tile[0], r, panel, d, bound)}, 1, d
	case useZMM && left > panelCols:
		mask[0], mask[1], k = gemm4x32gezmm(&tile[0], r, d, panel, d, bound, a, b, first)
		return mask, 2, k
	}
	mask[0], k = gemm4x16ge(&tile[0], r, d, panel, d, bound, a, b, first)
	return mask, 1, k
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

// packPanelZMM is packPanels for one panel of cols <= 16 rows of d >= 1
// elements on AVX-512F, by gathers.
//
//go:noescape
func packPanelZMM(panel, s *float32, d, cols int)

// int8Stats writes, for each of n rows of d elements from x, the
// largest |x[k]| and the float32 sum of all |x[k]| to out[2j] and
// out[2j+1].
//
//go:noescape
func int8Stats(x *float32, d, n int, out *float32)

// int8Quant writes the int8 codes of n rows of d elements from x,
// x[k]*inv[j] rounded to nearest even, four k to a dword: group g of row
// j, XORed bytewise with flip, at dst + (j/16)*groupStep +
// (j%16)*rowStep + g*stride, for g < ceil(d/4), the last padded with
// code 0. sums[j] is row j's sum of codes.
//
//go:noescape
func int8Quant(x *float32, d, n int, inv *float32, dst *byte, rowStep, groupStep, stride int, flip uint32, sums *int32)

// int8TileGE is the int8 filter's 4x32 tile (package doc, "Int8
// filter"): bit p*16+jj of keep is set unless every one of the four
// rows' estimates for column p*16+jj of the two panels is below its
// row's bound.
//
//go:noescape
func int8TileGE(r *byte, ldr int, panel *byte, groups int, corr *int32, col, row, bound *float32) (keep uint32)

// int8Strip writes the top-k's int32 cells of four rows of the R layout
// from r, ldr bytes apart, against pairs pairs of panels of the S layout
// from panel, each D + q_i·q_j, on VPDPBUSD: row t's against pair q to
// out[t*ldo+32q:][:32] (stripCellsGo; package doc, "Top-k by
// candidates").
//
//go:noescape
func int8Strip(r *byte, ldr int, panel *byte, groups int, corr *int32, pairs int, out *int32, ldo int)

// topKLanes is the top-k's first pass over a 16-row group's cells: per
// row in live, per lane (column mod 32), the largest admitted lower
// estimate, and, unless k is 0, the row's kth raised to the k-th largest
// lane (topKLanesGo).
//
//go:noescape
func topKLanes(cells *int32, ldc, pairs int, col, row *float32, admit *uint32, live, groups int, lanes *float32, k int, kth *float32)

// topKList is the top-k's second pass: it lists, row by row in live, the
// admitted cells whose upper estimate reaches the row's kth or is NaN,
// writing each array up to 16 entries past listed (topKListGo), while
// fewer than room entries hold a row's every cell and 16 more; rest is
// the live rows it did not reach.
//
//go:noescape
func topKList(cells *int32, ldc, pairs int, col, row *float32, admit *uint32, live int, kth *float32, ups *float32, cols, rows *int32, j0, n0, room int) (listed, rest int)

// dotPairs computes n <= 16 cells, one a lane: dst[l] is dotSeq of the
// d elements at r[ri[l]] and at s[sj[l]], bit for bit.
//
//go:noescape
func dotPairs(dst, r, s *float32, ri, sj *int32, d, n int)

// peakDotInt8 runs the int8 tile's arithmetic on registers only, for
// BenchmarkPeakDotInt8; haveVNNI says whether it may run.
func peakDotInt8(iters int)

// peakFMAYMM and peakFMAZMM run the tiles' arithmetic on registers
// only, for BenchmarkPeakMulAdd to measure the ceiling each width of
// tile is held against; haveAVX512 says whether the second may run.
func peakFMAYMM(iters int)
func peakFMAZMM(iters int)

// fmaSS is the host's fused multiply-add on one float32, VFMADD231SS,
// which FuzzFMA32 holds the software softFMA32 to.
func fmaSS(a, b, c float32) float32

var haveAVX512 = haveSIMD && detectAVX512()

// haveVNNI reports whether the host also has AVX-512 VNNI (CPUID leaf 7
// ECX bit 11), which the int8 filter's VPDPBUSD needs.
var haveVNNI = haveAVX512 && detectVNNI()

// useInt8 puts the int8 filter in front of the 4x32 ZMM scan tile. It is
// set once from CPUID; tests switch it to run the scan with and without.
var useInt8 = haveVNNI

func detectVNNI() bool {
	_, _, ecx, _ := cpuid(7, 0)
	return ecx&(1<<11) != 0
}

func detectAVX512() bool {
	// XCR0 bits 5-7: the OS saves the opmask and ZMM state; leaf 7 EBX
	// bit 16: AVX-512F.
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	return xcr0&0xe6 == 0xe6 && ebx&(1<<16) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveSIMD reports whether the CPU has AVX2 and FMA and the OS saves YMM
// state.
var haveSIMD = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&fma == 0 || ecx&osxsave == 0 || ecx&avx == 0 {
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
// into dst; a tile reaching into the zero-padded tail panel goes through
// a scratch tile so no lane is stored out of bounds.
func mulPanelSIMD(dst, r, s *Matrix, rLo, rHi, blockCols int) {
	d, ns := r.Cols(), s.Rows()
	blockCols = max(panelCols, blockCols/panelCols*panelCols)
	packed := getPacked(blockCols * d)
	defer packedPool.Put(packed)
	var tile scanTile
	for sLo := 0; sLo < ns; sLo += blockCols {
		sHi := min(sLo+blockCols, ns)
		packPanels(*packed, s, sLo, sHi)
		for i, rows := rLo, 4; i < rHi; i += rows {
			if i+4 > rHi {
				rows = 1
			}
			ri := &r.Data[i*d]
			for j0, width := sLo, 0; j0 < sHi; j0 += width {
				width = panelCols
				if rows == 4 && useZMM && sHi-j0 > panelCols {
					width = 2 * panelCols
				}
				panel := &(*packed)[(j0-sLo)*d]
				out, ldd := &dst.Data[i*ns+j0], ns
				tail := j0+width > ns
				if tail {
					out, ldd = &tile[0], 2*panelCols
				}
				switch {
				case rows < 4:
					gemm1x16(out, ri, panel, d)
				case width > panelCols:
					gemm4x32zmm(out, ldd, ri, d, panel, d)
				default:
					gemm4x16(out, ldd, ri, d, panel, d)
				}
				for t := 0; tail && t < rows; t++ {
					copy(dst.Data[(i+t)*ns+j0:(i+t+1)*ns], tile[t*2*panelCols:])
				}
			}
		}
	}
}
