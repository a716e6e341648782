package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ejoin/internal/vec"
)

// GemmOptions tunes the blocked similarity GEMM. The zero value picks
// sensible defaults (all CPUs, 64×64 blocks).
type GemmOptions struct {
	// Threads is the number of worker goroutines; <=0 means GOMAXPROCS.
	Threads int
	// BlockRows is the R-panel height in rows; <=0 means 64.
	BlockRows int
	// BlockCols is the S-panel height in rows; <=0 means 64.
	BlockCols int
	// Kernel selects the inner kernel: vec.KernelScalar (the zero value),
	// or vec.KernelSIMD — the assembly tiles where the host has AVX2 and
	// FMA, 4x32 on ZMM registers where it also has AVX-512F, and the
	// pure-Go register tile elsewhere. All give the same bits.
	Kernel vec.Kernel
}

func (o GemmOptions) withDefaults() GemmOptions {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.BlockRows <= 0 {
		o.BlockRows = 64
	}
	if o.BlockCols <= 0 {
		o.BlockCols = 64
	}
	return o
}

// MulTransposeInto computes dst = r · sᵀ, i.e. dst[i][j] = r.Row(i)·s.Row(j),
// using cache-blocked parallel execution. dst must be r.Rows()×s.Rows().
// This is the tensor-join primitive: with unit-norm rows the result is the
// full pairwise cosine similarity matrix (Figure 6, step 1).
func MulTransposeInto(dst, r, s *Matrix, opts GemmOptions) error {
	if r.Cols() != s.Cols() {
		return fmt.Errorf("mat: inner dimensions differ: %d vs %d", r.Cols(), s.Cols())
	}
	if dst.Rows() != r.Rows() || dst.Cols() != s.Rows() {
		return fmt.Errorf("mat: dst is %dx%d, want %dx%d", dst.Rows(), dst.Cols(), r.Rows(), s.Rows())
	}
	opts = opts.withDefaults()

	nr, ns := r.Rows(), s.Rows()
	if nr == 0 || ns == 0 {
		return nil
	}

	// Parallelize over R row panels; each worker owns disjoint dst rows,
	// so no synchronization on writes is needed. The assembly kernel packs
	// every S block once per panel, so it wants few, tall panels: one per
	// thread, never shorter than the pure-Go panel, whole 4-row tiles.
	simd := opts.Kernel == vec.KernelSIMD && haveSIMD && r.Cols() > 0
	step := opts.BlockRows
	if simd {
		step = (max(step, (nr+opts.Threads-1)/opts.Threads) + 3) &^ 3
	}
	workers := min(opts.Threads, (nr+step-1)/step)
	if workers <= 1 {
		// One thread or one panel: a goroutine and a channel per call
		// would cost more than they buy on small probe blocks.
		for lo := 0; lo < nr; lo += step {
			mulPanel(dst, r, s, lo, min(lo+step, nr), opts, simd)
		}
		return nil
	}
	mulPanelsParallel(dst, r, s, step, workers, opts, simd)
	return nil
}

// mulPanelsParallel hands row panels of step rows to workers goroutines
// and waits for them. (Separate from MulTransposeInto so that the inline
// path does not pay for the closure's captured variables.)
func mulPanelsParallel(dst, r, s *Matrix, step, workers int, opts GemmOptions, simd bool) {
	nr := r.Rows()
	panels := make(chan [2]int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for p := range panels {
				mulPanel(dst, r, s, p[0], p[1], opts, simd)
			}
		}()
	}
	for lo := 0; lo < nr; lo += step {
		panels <- [2]int{lo, min(lo+step, nr)}
	}
	close(panels)
	wg.Wait()
}

// mulPanel computes dst rows [rLo, rHi) against all of s, iterating S in
// column blocks so a block of S rows stays in cache while being reused
// against every R row of the panel.
func mulPanel(dst, r, s *Matrix, rLo, rHi int, opts GemmOptions, simd bool) {
	if simd {
		mulPanelSIMD(dst, r, s, rLo, rHi, opts.BlockCols)
		return
	}
	ns := s.Rows()
	for sLo := 0; sLo < ns; sLo += opts.BlockCols {
		sHi := min(sLo+opts.BlockCols, ns)
		if opts.Kernel == vec.KernelSIMD {
			mulBlockUnrolled(dst, r, s, rLo, rHi, sLo, sHi)
		} else {
			mulBlockScalar(dst, r, s, rLo, rHi, sLo, sHi)
		}
	}
}

func mulBlockScalar(dst, r, s *Matrix, rLo, rHi, sLo, sHi int) {
	for i := rLo; i < rHi; i++ {
		ri := r.Row(i)
		drow := dst.Row(i)
		for j := sLo; j < sHi; j++ {
			sj := s.Row(j)
			var acc float32
			for k := range ri {
				acc = fma32(ri[k], sj[k], acc)
			}
			drow[j] = acc
		}
	}
}

// mulBlockUnrolled is the portable register-tiled micro-kernel, and the
// reference the assembly kernel is held to: a 4(R)x2(S) tile keeps 8
// accumulators live and reuses every loaded element across the tile (6
// loads feed 8 multiply-adds), which is where BLAS kernels get their
// advantage over tuple-at-a-time dot products. It runs KernelSIMD on
// every build or host without the assembly kernels.
//
// Determinism contract: every output cell accumulates over k in ascending
// order, whether it lands in the 4x2 tile or a remainder row/column. A
// cell's bit pattern therefore depends only on its two input vectors —
// never on where block or tile boundaries fall, i.e. never on the matrix
// shapes. The shard router relies on this: it slices the same logical
// tables into per-shard matrices of different heights and promises
// byte-identical similarities to an unsharded execution.
func mulBlockUnrolled(dst, r, s *Matrix, rLo, rHi, sLo, sHi int) {
	d := r.Cols()
	i := rLo
	for ; i+4 <= rHi; i += 4 {
		r0, r1, r2, r3 := r.Row(i), r.Row(i+1), r.Row(i+2), r.Row(i+3)
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		j := sLo
		for ; j+2 <= sHi; j += 2 {
			// Reslice every stream to the common length d so the compiler
			// proves all k-indexed accesses in bounds (range over b0).
			b0 := s.Row(j)[:d:d]
			b1 := s.Row(j + 1)[:d:d]
			a0 := r0[:d:d]
			a1 := r1[:d:d]
			a2 := r2[:d:d]
			a3 := r3[:d:d]
			var a00, a01, a10, a11, a20, a21, a30, a31 float32
			for k := range b0 {
				// Each element loaded once for the tile (and, where fma32
				// is softFMA32, widened once).
				s0k, s1k := b0[k], b1[k]
				r0k, r1k, r2k, r3k := a0[k], a1[k], a2[k], a3[k]
				a00 = fma32(r0k, s0k, a00)
				a01 = fma32(r0k, s1k, a01)
				a10 = fma32(r1k, s0k, a10)
				a11 = fma32(r1k, s1k, a11)
				a20 = fma32(r2k, s0k, a20)
				a21 = fma32(r2k, s1k, a21)
				a30 = fma32(r3k, s0k, a30)
				a31 = fma32(r3k, s1k, a31)
			}
			d0[j], d0[j+1] = a00, a01
			d1[j], d1[j+1] = a10, a11
			d2[j], d2[j+1] = a20, a21
			d3[j], d3[j+1] = a30, a31
		}
		for ; j < sHi; j++ {
			sj := s.Row(j)
			d0[j] = dotSeq(r0, sj)
			d1[j] = dotSeq(r1, sj)
			d2[j] = dotSeq(r2, sj)
			d3[j] = dotSeq(r3, sj)
		}
	}
	// Remaining 1-3 R rows.
	for ; i < rHi; i++ {
		ri := r.Row(i)
		drow := dst.Row(i)
		for j := sLo; j < sHi; j++ {
			drow[j] = dotSeq(ri, s.Row(j))
		}
	}
}

// dotSeq is the remainder-cell kernel and the GEMM contract's reference,
// fmaSeq: acc = fma(a[k], b[k], acc) over ascending k from +0, one
// rounding a step — the accumulation of the register tile's per-cell
// sums, mulBlockScalar, and each lane of the assembly kernel. Remainder
// cells must not reassociate differently from tile cells (e.g. via
// vec.Dot's multi-lane accumulators), or a cell's value would depend on
// its position relative to the 4x2 tiling.
func dotSeq(a, b []float32) float32 {
	b = b[:len(a):len(a)]
	var acc float32
	for k := range a {
		acc = fma32(a[k], b[k], acc)
	}
	return acc
}

// softFMA32 is a*b+c rounded once to float32 (to nearest, ties to even),
// as VFMADD231SS and FMADDS compute it, in software: the product is exact
// in float64. It is fma32 on every architecture but arm64, where the
// compiler fuses a*b+c into FMADDS, and the reference fma32 is tested
// against everywhere.
func softFMA32(a, b, c float32) float32 { return addRound32(float64(a)*float64(b), c) }

// addRound32 is p+c rounded once to float32, for a p that float64 holds
// exactly. Their float64 sum s is rounded once, and float32(s) is right
// unless that first rounding landed s on a float32 midpoint — the low 29
// of its 52 fraction bits 1 then all 0 — which the exact sum may lie just
// off: rounded twice, 1 + 2^-24 + 2^-54 would tie to 1. (So does
// float32(math.FMA(a, b, c)).) For those sums, and for the float32
// subnormals, whose midpoints sit lower, and 0, the rounding's error e is
// computed exactly (TwoSum) and the sum rounded to odd: to whichever
// float64 neighbour has an odd last bit when e is not 0. That keeps what
// the final rounding needs to know, since float64's 53 bits exceed
// float32's 24 by more than two. An infinite sum is never such a sum (its
// fraction is 0), and a NaN stays NaN.
func addRound32(p float64, c float32) float32 {
	z := float64(c)
	s := p + z
	if sb := math.Float64bits(s); sb&(1<<29-1) == 1<<28 || sb<<1 < (1023-126)<<53 {
		v := s - p
		if e := (p - (s - v)) + (z - v); e != 0 {
			// s is not 0 (a non-zero exact sum of float64s rounds to
			// non-zero). An even s steps one ulp away from 0 if e has its
			// sign, else towards it; an odd one stays.
			s = math.Float64frombits(sb | 1 - (math.Float64bits(e)^sb)>>63&^sb&1*2)
		}
	}
	return float32(s)
}

// panelCols is the micro-kernel's tile width: one k step of an S panel
// fills one 16-lane ZMM register or two 8-lane YMM registers, one output
// column per lane.
const panelCols = 16

// packedPool holds the per-call scratch for one packed S block: a few
// tens of kilobytes, so a miss is cheap and a sync.Pool is enough.
var packedPool sync.Pool

func getPacked(n int) *[]float32 {
	if p, _ := packedPool.Get().(*[]float32); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	buf := make([]float32, n)
	return &buf
}

// packPanels lays rows [sLo, sHi) of s out for the micro-kernel:
// consecutive groups of 16 rows become k-major panels,
// P[k*16+jj] = s[j0+jj][k], so one k step of 16 output columns is one
// contiguous 64-byte load. The last panel is zero-padded. With the ZMM
// tiles each panel is gathered, 16 rows' k-th elements at a time.
func packPanels(packed []float32, s *Matrix, sLo, sHi int) {
	d := s.Cols()
	for j0 := sLo; j0 < sHi; j0 += panelCols {
		panel := packed[(j0-sLo)*d : (j0-sLo+panelCols)*d]
		cols := min(panelCols, sHi-j0)
		if useZMM {
			packPanelZMM(&panel[0], &s.Data[j0*d], d, cols)
			continue
		}
		if cols < panelCols {
			clear(panel)
		}
		for jj := 0; jj < cols; jj++ {
			for k, v := range s.Row(j0 + jj) {
				panel[k*panelCols+jj] = v
			}
		}
	}
}

// checkpoints is how many times the scan tile pauses over d-long rows: at
// k = 16, 32, ... <= d-16, so that stopping skips at least 16 steps.
// Beyond 2^20 columns the rounding slack in suffixFactors is not proved,
// so such rows get none.
func checkpoints(d int) int {
	if d < 32 || d > 1<<20 {
		return 0
	}
	return d/16 - 1
}

// factorAt is where suffixFactors puts the factor of the row-th row it
// covered at checkpoint c = 1..nc: the panels' layout, 16 rows to a
// group and checkpoint-major within it, so that a tile reads its four
// rows' or sixteen columns' factors at one checkpoint contiguously and
// finds the next checkpoint's 16 floats on.
func factorAt(nc, row, c int) int {
	return (row/panelCols*nc+c-1)*panelCols + row%panelCols
}
