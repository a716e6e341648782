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
	// tile (scanTile) and, for the assembly kernel, one packed S block
	// with its suffix factors and the factors of the worker's R rows.
	ScratchBytes int64
	// KSteps is the scan's inner-loop work had every tile run to the end:
	// one step is one k of one R row against one 16-column panel.
	// KStepsSkipped is how much of it was not run, because a tile stopped
	// at a checkpoint or all of a strip's bounds were NaN.
	KSteps, KStepsSkipped int64
}

// ScanAbove is the fused similarity scan: it computes r·sᵀ tile by tile
// exactly as MulTransposeInto does — every cell is dotSeq of its two
// rows, bit for bit, whatever the kernel, options or shapes — but
// compares each tile with its rows' bounds while it is still in
// registers, and never stores the product. The visitors are called for
// exactly the cells with sim >= bound[i]; a NaN similarity never
// qualifies, and no similarity reaches a NaN bound. Which tiles run to
// the end is not part of the contract: a strip of rows whose bounds are
// all NaN is not computed, and the assembly tile stops at a checkpoint
// once none of its cells can still reach its bound (package doc, "Early
// exit"), which changes no visited cell and no bit of one.
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
	scratch := int64(workers) * int64(len(scanTile{})) * 4
	for lo := 0; simd && lo < nr; lo += step {
		scratch += int64(scanScratch(opts.BlockCols, min(step, nr-lo), r.Cols())) * 4
	}
	st := ScanStats{
		Blocks:       (ns + opts.BlockCols - 1) / opts.BlockCols,
		ScratchBytes: scratch,
		KSteps:       int64(nr) * int64((ns+panelCols-1)/panelCols) * int64(r.Cols()),
	}
	if workers == 1 {
		var err error
		st.KStepsSkipped, err = scanRows(ctx, r, s, bound, 0, nr, opts, simd, newVisitor())
		return st, err
	}
	skipped := make([]int64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		visit := newVisitor()
		go func() {
			defer wg.Done()
			skipped[w], errs[w] = scanRows(ctx, r, s, bound, w*step, min((w+1)*step, nr), opts, simd, visit)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return st, err
		}
		st.KStepsSkipped += skipped[w]
	}
	return st, nil
}

// scanRows scans rows [rLo, rHi) of r against all of s — mulPanelSIMD's
// loop: each S block is packed once and stays cache-resident while the
// R rows stream past it, four at a time and then the last 1-3 singly.
// Builds and hosts without the assembly kernel run the same loop with
// each tile computed by the portable kernels and compared in Go. It
// returns the k-steps it did not run.
func scanRows(ctx context.Context, r, s *Matrix, bound []float32, rLo, rHi int, opts GemmOptions, simd bool, visit ScanVisitor) (skipped int64, err error) {
	d, ns := r.Cols(), s.Rows()
	// One pooled scratch: the packed S block, behind it the block's
	// suffix factors, then those of this worker's R rows.
	var packed, sfxS, sfxR []float32
	nc := 0
	if simd {
		nc = checkpoints(d)
		p := getPacked(scanScratch(opts.BlockCols, rHi-rLo, d))
		defer packedPool.Put(p)
		packed, sfxS, sfxR = (*p)[:opts.BlockCols*d], (*p)[opts.BlockCols*d:opts.BlockCols*(d+nc)], (*p)[opts.BlockCols*(d+nc):]
		if nc > 0 {
			suffixFactors(sfxR, r, rLo, rHi)
		}
	}
	var tile scanTile
	next := min(1, nc) // the checkpoint the next 4-row tile tests first, 1..nc
	for sLo := 0; sLo < ns; sLo += opts.BlockCols {
		if err := ctx.Err(); err != nil {
			return skipped, fmt.Errorf("mat: scan cancelled at block (%d,%d): %w", rLo, sLo, err)
		}
		sHi := min(sLo+opts.BlockCols, ns)
		if simd {
			packPanels(packed, s, sLo, sHi)
		}
		if nc > 0 {
			suffixFactors(sfxS, s, sLo, sHi)
		}
		for i, rows := rLo, 4; i < rHi; i += rows {
			if i+4 > rHi {
				rows = 1
			}
			if allNaN(bound[i : i+rows]) {
				// Nothing reaches a NaN bound (core gives one to every
				// row a pushed-down predicate excludes).
				skipped += int64(rows*d) * int64((sHi-sLo+panelCols-1)/panelCols)
				continue
			}
			// Every strip asks at least once per block, at the last
			// checkpoint, whether tiles have begun to stop.
			next = min(next, nc)
			for j0, panels := sLo, 0; j0 < sHi; j0 += panels * panelCols {
				var mask [2]uint64
				if simd {
					first := d
					var fr, fs *float32 // the strip's and its first panel's factors from first on
					if rows == 4 && 1 <= next && next <= nc {
						first, fr, fs = next*16, &sfxR[factorAt(nc, i-rLo, next)], &sfxS[factorAt(nc, j0-sLo, next)]
					}
					var k int
					mask, panels, k = tileGE(&tile, &r.Data[i*d], rows, d, &packed[(j0-sLo)*d], sHi-j0, &bound[i], fr, fs, first)
					skipped += int64(panels * rows * (d - k))
					// Neighbouring tiles stop at about the same k, so the
					// next one starts testing where this one stopped: one
					// checkpoint earlier if that was its first test, one
					// later (past the last: none) if it never stopped.
					switch {
					case first == d:
					case k == d:
						next++
					case k == first:
						next = max(next-1, 1)
					default:
						next = k / 16
					}
				} else {
					panels = 1
					mask[0] = tileGEPortable(&tile, r, s, i, rows, j0, min(panelCols, sHi-j0), bound, opts.Kernel)
				}
				for p, m := range mask[:panels] {
					// The zero-padded lanes of a tail panel hold 0, which
					// may well reach the bound: keep real columns only.
					jp := j0 + p*panelCols
					m &= (uint64(1)<<min(panelCols, sHi-jp) - 1) * 0x0001_0001_0001_0001
					for ; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						visit(i+b/panelCols, jp+b%panelCols, tile[p*4*panelCols+b])
					}
				}
			}
		}
	}
	return skipped, nil
}

// scanTile is a worker's tile scratch: up to two panels' 4x16 cells,
// panel-major, as tileGE writes them (mulPanelSIMD stores a 4x32 tile
// into it row-major).
type scanTile [2 * 4 * panelCols]float32

// scanScratch is the length of one assembly-kernel worker's scratch for
// rows R rows: a packed S block and, per checkpoint of the tile, a factor
// for each of its columns and for each R row in whole groups of 16.
func scanScratch(blockCols, rows, d int) int {
	return blockCols*d + (blockCols+(rows+panelCols-1)/panelCols*panelCols)*checkpoints(d)
}

// allNaN reports whether every bound is NaN.
func allNaN(bound []float32) bool {
	for _, b := range bound {
		if b == b {
			return false
		}
	}
	return true
}

// tileGEPortable is tileGE without the assembly: the rows x cols strip at
// (i, j0) goes through the kernel MulTransposeInto would run and is then
// compared in Go. Same mask, same tile layout.
func tileGEPortable(tile *scanTile, r, s *Matrix, i, rows, j0, cols int, bound []float32, k vec.Kernel) uint64 {
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
