package mat

import (
	"fmt"
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
	// or vec.KernelSIMD — the AVX2 assembly tile where the host has it,
	// the pure-Go register tile elsewhere. All give the same bits.
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
				acc += ri[k] * sj[k]
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
// every build or host without the AVX2 kernel.
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
				s0k := b0[k]
				s1k := b1[k]
				r0k := a0[k]
				r1k := a1[k]
				r2k := a2[k]
				r3k := a3[k]
				a00 += r0k * s0k
				a01 += r0k * s1k
				a10 += r1k * s0k
				a11 += r1k * s1k
				a20 += r2k * s0k
				a21 += r2k * s1k
				a30 += r3k * s0k
				a31 += r3k * s1k
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

// dotSeq is the remainder-cell kernel and the GEMM contract's reference:
// one sequential ascending-k loop, the same accumulation order as the
// register tile's per-cell sums, mulBlockScalar, and each lane of the
// assembly kernel. Remainder cells must not reassociate differently from
// tile cells (e.g. via vec.Dot's multi-lane accumulators), or a cell's
// value would depend on its position relative to the 4x2 tiling.
func dotSeq(a, b []float32) float32 {
	b = b[:len(a):len(a)]
	var acc float32
	for k := range a {
		acc += a[k] * b[k]
	}
	return acc
}

// panelCols is the micro-kernel's tile width: one S panel feeds two
// 8-lane YMM registers, one output column per lane.
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
// contiguous 64-byte load. The last panel is zero-padded.
func packPanels(packed []float32, s *Matrix, sLo, sHi int) {
	d := s.Cols()
	for j0 := sLo; j0 < sHi; j0 += panelCols {
		panel := packed[(j0-sLo)*d : (j0-sLo+panelCols)*d]
		cols := min(panelCols, sHi-j0)
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

// MulTranspose allocates and returns r·sᵀ.
func MulTranspose(r, s *Matrix, opts GemmOptions) (*Matrix, error) {
	dst := New(r.Rows(), s.Rows())
	if err := MulTransposeInto(dst, r, s, opts); err != nil {
		return nil, err
	}
	return dst, nil
}
