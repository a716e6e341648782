package mat

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"ejoin/internal/vec"
)

// ScanVisitor receives one qualifying cell of r·sᵀ: row i of r, row j of
// s, and their similarity.
type ScanVisitor func(i, j int, sim float32)

// ScanStats reports what one ScanAbove call did.
type ScanStats struct {
	// Blocks is the number of S blocks the scan walked.
	Blocks int
	// ScratchBytes is the scan's whole working memory: per worker one
	// 4x16 tile and, for the assembly kernel, one packed S block.
	ScratchBytes int64
}

// ScanAbove is the fused similarity scan: it computes r·sᵀ tile by tile
// exactly as MulTransposeInto does — every cell is dotSeq of its two
// rows, bit for bit, whatever the kernel, options or shapes — but
// compares each tile with its rows' bounds while it is still in
// registers, and never stores the product. The visitors are called for
// exactly the cells with sim >= bound[i]; a NaN similarity never
// qualifies, and no similarity reaches a NaN bound.
//
// newVisitor is called once per worker, on the calling goroutine, before
// the scan starts; the visitor it returns is called by that worker only,
// so whatever it captures needs no lock. Each worker owns whole rows of
// r and reads bound[i] afresh for every tile, and a row's cells are
// visited in ascending j. A visitor may therefore raise bound[i] of the
// row it is called for (a top-k consumer raises it to the row's k-th
// best) and later tiles of that row are compared with the new value;
// cells of the current tile were already compared with the old one, so
// it may still see some below the new bound. Nothing else may write
// bound during the scan.
//
// ctx is polled once per S block (GemmOptions.BlockCols rows of s,
// rounded to whole 16-row panels) on every worker.
func ScanAbove(ctx context.Context, r, s *Matrix, bound []float32, opts GemmOptions, newVisitor func() ScanVisitor) (ScanStats, error) {
	if r.Cols() != s.Cols() {
		return ScanStats{}, fmt.Errorf("mat: inner dimensions differ: %d vs %d", r.Cols(), s.Cols())
	}
	if len(bound) != r.Rows() {
		return ScanStats{}, fmt.Errorf("mat: %d bounds for %d rows", len(bound), r.Rows())
	}
	opts = opts.withDefaults()
	opts.BlockCols = max(panelCols, opts.BlockCols/panelCols*panelCols)
	nr, ns := r.Rows(), s.Rows()
	if nr == 0 || ns == 0 {
		return ScanStats{}, nil
	}
	simd := opts.Kernel == vec.KernelSIMD && haveSIMD && r.Cols() > 0

	// One contiguous run of whole 4-row tiles per worker, never shorter
	// than a GEMM row panel: a goroutine for a few rows costs more than
	// it buys.
	step := (max(opts.BlockRows, (nr+opts.Threads-1)/opts.Threads) + 3) &^ 3
	workers := (nr + step - 1) / step
	scratch := int64(4 * panelCols * 4)
	if simd {
		scratch += int64(opts.BlockCols) * int64(r.Cols()) * 4
	}
	st := ScanStats{Blocks: (ns + opts.BlockCols - 1) / opts.BlockCols, ScratchBytes: int64(workers) * scratch}
	if workers == 1 {
		return st, scanRows(ctx, r, s, bound, 0, nr, opts, simd, newVisitor())
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		visit := newVisitor()
		go func() {
			defer wg.Done()
			errs[w] = scanRows(ctx, r, s, bound, w*step, min((w+1)*step, nr), opts, simd, visit)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// scanRows scans rows [rLo, rHi) of r against all of s — mulPanelSIMD's
// loop: each S block is packed once and stays cache-resident while the
// R rows stream past it, four at a time and then the last 1-3 singly.
// Builds and hosts without the assembly kernel run the same loop with
// each tile computed by the portable kernels and compared in Go.
func scanRows(ctx context.Context, r, s *Matrix, bound []float32, rLo, rHi int, opts GemmOptions, simd bool, visit ScanVisitor) error {
	d, ns := r.Cols(), s.Rows()
	var packed []float32
	if simd {
		p := getPacked(opts.BlockCols * d)
		defer packedPool.Put(p)
		packed = *p
	}
	var tile [4 * panelCols]float32
	for sLo := 0; sLo < ns; sLo += opts.BlockCols {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("mat: scan cancelled at block (%d,%d): %w", rLo, sLo, err)
		}
		sHi := min(sLo+opts.BlockCols, ns)
		if simd {
			packPanels(packed, s, sLo, sHi)
		}
		for i, rows := rLo, 4; i < rHi; i += rows {
			if i+4 > rHi {
				rows = 1
			}
			for j0 := sLo; j0 < sHi; j0 += panelCols {
				cols := min(panelCols, sHi-j0)
				var mask uint64
				if simd {
					// The zero-padded lanes of a tail panel hold 0, which
					// may well reach the bound: keep real columns only.
					mask = tileGE(&tile, &r.Data[i*d], rows, d, &packed[(j0-sLo)*d], &bound[i]) &
						((uint64(1)<<cols - 1) * 0x0001_0001_0001_0001)
				} else {
					mask = tileGEPortable(&tile, r, s, i, rows, j0, cols, bound, opts.Kernel)
				}
				for ; mask != 0; mask &= mask - 1 {
					b := bits.TrailingZeros64(mask)
					visit(i+b/panelCols, j0+b%panelCols, tile[b])
				}
			}
		}
	}
	return nil
}

// tileGEPortable is tileGE without the assembly: the rows x cols strip at
// (i, j0) goes through the kernel MulTransposeInto would run and is then
// compared in Go. Same mask, same tile layout.
func tileGEPortable(tile *[4 * panelCols]float32, r, s *Matrix, i, rows, j0, cols int, bound []float32, k vec.Kernel) uint64 {
	d := r.Cols()
	dst := Matrix{RowsN: rows, ColsN: panelCols, Data: tile[:rows*panelCols]}
	rv := Matrix{RowsN: rows, ColsN: d, Data: r.Data[i*d : (i+rows)*d]}
	sv := Matrix{RowsN: cols, ColsN: d, Data: s.Data[j0*d : (j0+cols)*d]}
	if k == vec.KernelSIMD {
		mulBlockUnrolled(&dst, &rv, &sv, 0, rows, 0, cols)
	} else {
		mulBlockScalar(&dst, &rv, &sv, 0, rows, 0, cols)
	}
	var mask uint64
	for t := 0; t < rows; t++ {
		for jj, sim := range tile[t*panelCols : t*panelCols+cols] {
			if sim >= bound[i+t] {
				mask |= 1 << (t*panelCols + jj)
			}
		}
	}
	return mask
}
