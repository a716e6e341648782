//go:build amd64 && !purego

package mat

//go:noescape
func gemm4x16(dst *float32, ldd int, r *float32, ldr int, panel *float32, d int)

//go:noescape
func gemm1x16(dst, r, panel *float32, d int)

//go:noescape
func gemm4x16ge(tile, r *float32, ldr int, panel *float32, d int, bound *float32) uint64

//go:noescape
func gemm1x16ge(tile, r, panel *float32, d int, bound *float32) uint64

// tileGE is the scan's micro-kernel: rows (4 or 1) R rows of length d at
// r against one packed panel, each cell compared with its row's bound.
// It returns the mask of qualifying cells, bit t*16+jj for row t, lane
// jj, and writes tile only when the mask is non-zero.
func tileGE(tile *[4 * panelCols]float32, r *float32, rows, d int, panel, bound *float32) uint64 {
	if rows == 4 {
		return gemm4x16ge(&tile[0], r, d, panel, d, bound)
	}
	return gemm1x16ge(&tile[0], r, panel, d, bound)
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
