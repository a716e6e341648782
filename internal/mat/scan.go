package mat

import (
	"context"
	"fmt"
	"math"
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
	// with its suffix factors and the factors of the worker's R rows,
	// and, where the int8 filter runs, its int8 copies of both. For
	// TopKCandidates it is per worker the int8 copies, the rows' bounds
	// and the most cells its candidate list held.
	ScratchBytes int64
	// KSteps is the scan's inner-loop work had every tile run to the end:
	// one step is one k of one R row against one 16-column panel.
	// KStepsSkipped is how much of it was not run, because a tile stopped
	// at a checkpoint, the int8 filter ruled it out, or all of a strip's
	// bounds were NaN.
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
// all NaN is not computed, the assembly tile stops at a checkpoint
// once none of its cells can still reach its bound (package doc, "Early
// exit"), and a ZMM tile the int8 filter rules out is not computed
// (package doc, "Int8 filter"), which changes no visited cell and no bit
// of one.
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

	step := workerRows(nr, opts)
	workers := (nr + step - 1) / step
	scratch := int64(workers) * int64(len(scanTile{})) * 4
	for lo := 0; simd && lo < nr; lo += step {
		rows := min(step, nr-lo)
		scratch += int64(scanScratch(opts.BlockCols, rows, r.Cols()))*4 + int8Scratch(opts.BlockCols, rows, r.Cols(), ns)
	}
	st := ScanStats{
		Blocks:       (ns + opts.BlockCols - 1) / opts.BlockCols,
		ScratchBytes: scratch,
		KSteps:       int64(nr) * int64((ns+panelCols-1)/panelCols) * int64(r.Cols()),
	}
	skipped := make([]int64, workers)
	err := eachWorker(nr, step, newVisitor, func(w, lo, hi int, visit ScanVisitor) (err error) {
		skipped[w], err = scanRows(ctx, r, s, bound, lo, hi, opts, simd, visit)
		return err
	})
	for _, n := range skipped {
		st.KStepsSkipped += n
	}
	return st, err
}

// workerRows is how many R rows each worker of a scan owns: one
// contiguous run of whole 4-row tiles, never shorter than a GEMM row
// panel, since a goroutine for a few rows costs more than it buys. The
// last worker owns what is left. opts has its defaults.
func workerRows(nr int, opts GemmOptions) int {
	return (max(opts.BlockRows, (nr+opts.Threads-1)/opts.Threads) + 3) &^ 3
}

// eachWorker runs work for every worker's rows [lo, hi), runs of step
// rows of [0, nr), with the visitor newVisitor returns for it. Visitors
// are made on the calling goroutine, in worker order, before any work
// starts; the work runs on one goroutine per worker when there are
// several. It returns the first worker's error, by worker order.
func eachWorker(nr, step int, newVisitor func() ScanVisitor, work func(w, lo, hi int, visit ScanVisitor) error) error {
	workers := (nr + step - 1) / step
	if workers == 1 {
		return work(0, 0, nr, newVisitor())
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		visit := newVisitor()
		go func() {
			defer wg.Done()
			errs[w] = work(w, w*step, min((w+1)*step, nr), visit)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
	var filter *int8Filter
	if simd && int8On(d, rHi-rLo, ns) {
		filter = newInt8Filter(d, rHi-rLo, opts.BlockCols)
		defer filter.release()
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
		if filter != nil {
			filter.nextBlock()
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
			// The int8 filter tests this strip's 4x32 tiles unless its
			// bounds are all -Inf, which every cell but a NaN reaches.
			filtering := filter != nil && rows == 4 && filter.samples(i-rLo) && !allNegInf(bound[i:i+4])
			if filtering {
				filter.prepare(s, sLo, sHi, &r.Data[i*d], i-rLo)
			}
			for j0, panels := sLo, 0; j0 < sHi; j0 += panels * panelCols {
				var mask [2]uint64
				if filtering && sHi-j0 > panelCols {
					valid := uint32(1)<<min(2*panelCols, sHi-j0) - 1
					if filter.tile(i-rLo, j0-sLo, &bound[i])&valid == 0 {
						panels = 2
						skipped += int64(2 * 4 * d)
						continue
					}
				}
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

// int8Filter is one scan worker's int8 copy of its R rows and of the
// current S block, for int8TileGE and int8TileEst (package doc, "Int8
// filter"). Codes come four k to a dword, k padded to d4, a multiple of
// 4, with code 0.
type int8Filter struct {
	d, d4 int
	beta  float32 // the L1 factor β
	// r holds the worker's R rows' codes offset by +128, d4 bytes a row;
	// rowMeta, per group of 16 rows, their scales and then their factors
	// c = β·|row|₁ (or +Inf). A 4-row strip is quantized the first time
	// one of its tiles is tested.
	r          []byte
	rowMeta    []float32
	stripReady []bool
	// s holds the S block's codes as 16-column panels of d4/4 64-byte
	// groups, group g of a panel being column jj's codes 4g..4g+3 at
	// g*64+jj*4; corr holds each column's D − 128·(its code sum), and
	// colMeta, per panel, its 16 scales and then its 16 b = β·|col|₁. The
	// block is quantized the first time one of its tiles is tested.
	s          []byte
	corr       []int32
	colMeta    []float32
	blockReady bool
	// Scratch for quantize: per row its largest |x| and L1 norm, 127
	// over its largest |x|, and its codes' sum.
	stats []float32
	inv   []float32
	sums  []int32
	// The tiles tested and kept in this block, the block's number, and
	// whether it tests only a sample of its strips.
	tested, kept, block int
	sparse              bool
	// est receives a tile's estimates.
	est [260]float32
}

// int8Pool holds the workers' int8Filter buffers between calls.
var int8Pool sync.Pool

// The int8 filter runs on rows of 32 to 1024 elements (d <= 1024 keeps
// every int32 cell below 2^24, which float32 holds exactly), and only
// where it can pay: at least int8MinRows R rows per worker and
// int8MinCols S rows, so that quantizing each side once is a small part
// of the scan. Tests lower the two to run the filter on every shape.
const int8MinDim, int8MaxDim = 32, 1024

var int8MinRows, int8MinCols = 64, 128

// int8On reports whether a worker with rows R rows of d elements each
// runs the int8 filter against ns S rows.
func int8On(d, rows, ns int) bool {
	return useInt8 && useZMM && int8MinDim <= d && d <= int8MaxDim && rows >= int8MinRows && ns >= int8MinCols
}

// int8Scratch is the filter's share of such a worker's working memory,
// in bytes: int8Filter's buffers, or 0 where it does not run.
func int8Scratch(blockCols, rows, d, ns int) int64 {
	if !int8On(d, rows, ns) {
		return 0
	}
	return int8Bytes(blockCols, rows, d)
}

// int8Bytes is the size of an int8Filter's buffers for rows R rows of d
// elements and blockCols S rows, in bytes.
func int8Bytes(blockCols, rows, d int) int64 {
	d4 := int64(d+3) &^ 3
	return int64(rows+blockCols)*d4 + 4*int64((rows+panelCols-1)/panelCols*2*panelCols+7*blockCols+len(int8Filter{}.est))
}

// newInt8Filter sets up a filter for a worker's rows R rows of d
// elements, scanned against blockCols S rows at a time.
func newInt8Filter(d, rows, blockCols int) *int8Filter {
	f, _ := int8Pool.Get().(*int8Filter)
	if f == nil {
		f = new(int8Filter)
	}
	d4 := (d + 3) &^ 3
	f.d, f.d4 = d, d4
	f.beta = 0.5 + float32(d+16)*0x1p-16
	f.r = grow(f.r, rows*d4)
	f.rowMeta = grow(f.rowMeta, (rows+panelCols-1)/panelCols*2*panelCols)
	f.stripReady = grow(f.stripReady, rows/4)
	clear(f.stripReady)
	f.tested, f.kept, f.block, f.sparse = 0, 0, -1, false // nextBlock starts the first block, 0
	f.s = grow(f.s, blockCols*d4)
	f.corr = grow(f.corr, blockCols)
	f.colMeta = grow(f.colMeta, 2*blockCols)
	f.stats = grow(f.stats, 2*blockCols)
	f.inv = grow(f.inv, blockCols)
	f.sums = grow(f.sums, blockCols)
	return f
}

// release returns f's buffers to the pool.
func (f *int8Filter) release() { int8Pool.Put(f) }

// grow returns buf resliced to n, reallocated if it is too short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// quantize quantizes n rows of d elements from x: row j's codes go from
// dst + (j/16)*16*d4 + (j%16)*rowStep, group g of them stride*g on, in
// int8Quant's layout, its scale to meta[(j/16)*32+j%16], its factor
// β·|row|₁ 16 further on, and its codes' sum to f.sums[j]. A row the
// filter's inequality does not cover — a non-finite component or L1
// norm, or a largest |x| outside [2^-40, 2^40] other than 0 — gets scale
// 0 and factor +Inf, which make every estimate it enters +Inf or NaN, so
// no tile of it is ruled out.
func (f *int8Filter) quantize(x *float32, n int, dst *byte, rowStep, stride int, flip uint32, meta []float32) {
	int8Stats(x, f.d, n, &f.stats[0])
	for j := range n {
		maxAbs, l1 := f.stats[2*j], f.stats[2*j+1]
		var scale, inv, factor float32
		switch {
		case maxAbs == 0 && l1 == 0:
		case 0x1p-40 <= maxAbs && maxAbs <= 0x1p40 && l1 <= math.MaxFloat32:
			scale = maxAbs / 127
			inv, factor = 1/scale, f.beta*l1
		default:
			factor = float32(math.Inf(1))
		}
		f.inv[j] = inv
		meta[j/16*32+j%16], meta[j/16*32+16+j%16] = scale, factor
	}
	int8Quant(x, f.d, n, &f.inv[0], dst, rowStep, panelCols*f.d4, stride, flip, &f.sums[0])
}

// packBlock quantizes rows [sLo, sHi) of s into the filter's S block,
// padded to lanes, a multiple of 16: lanes past sHi get code 0, scale 0
// and b 0.
func (f *int8Filter) packBlock(s *Matrix, sLo, sHi, lanes int) {
	d4, n := f.d4, sHi-sLo
	clear(f.s[n/panelCols*panelCols*d4 : lanes*d4])
	for jj := n; jj < lanes; jj++ {
		f.corr[jj] = int32(d4/4 + 1)
		f.colMeta[jj/panelCols*2*panelCols+jj%panelCols], f.colMeta[(jj/panelCols*2+1)*panelCols+jj%panelCols] = 0, 0
	}
	f.quantize(&s.Data[sLo*f.d], n, &f.s[0], 4, 4*panelCols, 0, f.colMeta)
	for j, sum := range f.sums[:n] {
		f.corr[j] = int32(d4/4+1) - 128*sum
	}
}

// nextBlock moves the filter to the next S block. A tile the filter
// keeps costs its test on top of the F32 tile, and one it rules out
// spares an F32 tile that might have stopped early anyway, so testing
// pays only where most tiles are ruled out: in a threshold scan, where a
// few percent are kept, but not in a low one, where most are. So a scan
// starts dense, testing every tile, turns sparse, testing only every
// eighth strip of every eighth block, after a block whose tests kept
// more than a quarter of their tiles, and turns dense again after one
// whose tests kept at most a quarter.
func (f *int8Filter) nextBlock() {
	if f.tested > 0 {
		f.sparse = 4*f.kept > f.tested
	}
	f.tested, f.kept = 0, 0
	f.block++
	f.blockReady = false
}

// samples reports whether the filter tests the 4-row strip starting at
// the worker's row n in this block.
func (f *int8Filter) samples(n int) bool {
	return !f.sparse || f.block%8 == 0 && n%32 == 0
}

// prepare quantizes S block [sLo, sHi) and the strip of four R rows at
// x, the worker's rows n..n+3, unless that is done, for tile to test
// them.
func (f *int8Filter) prepare(s *Matrix, sLo, sHi int, x *float32, n int) {
	if !f.blockReady {
		f.packBlock(s, sLo, sHi, (sHi-sLo+panelCols-1)&^(panelCols-1))
		f.blockReady = true
	}
	if !f.stripReady[n/4] {
		f.quantize(x, 4, &f.r[n*f.d4], f.d4, 4, 0x80808080, f.rowMeta[n/16*32+n%16:])
		f.stripReady[n/4] = true
	}
}

// tile runs int8TileGE on the worker's R rows n..n+3 against the two
// panels from column c of the S block, both prepared, and returns the
// mask of those 32 columns some row may keep.
func (f *int8Filter) tile(n, c int, bound *float32) uint32 {
	keep := int8TileGE(&f.r[n*f.d4], f.d4, &f.s[c*f.d4], f.d4/4, &f.corr[c], &f.colMeta[2*c], &f.rowMeta[n/16*32+n%16], bound)
	f.tested++
	if keep != 0 {
		f.kept++
	}
	return keep
}

// tileEst is int8TileEst on the worker's R rows n..n+3 against the two
// panels from column c of the S block, with f.est for its estimates and
// no listing.
func (f *int8Filter) tileEst(n, c int, bound *float32, admit *[4]uint32) (keep01, keep23 uint64) {
	keep01, keep23, _ = f.tileList(n, c, bound, admit, nil, nil, nil, 0)
	return keep01, keep23
}

// tileList is int8TileEst on the worker's R rows n..n+3 against the two
// panels from column c of the S block, with f.est for its estimates,
// listing its cells from ups, cols and rows on (none if ups is nil),
// column numbers from j0 and row numbers from n.
func (f *int8Filter) tileList(n, c int, bound *float32, admit *[4]uint32, ups *float32, cols, rows *int32, j0 int) (keep01, keep23 uint64, listed int) {
	return int8TileEst(&f.r[n*f.d4], f.d4, &f.s[c*f.d4], f.d4/4, &f.corr[c], &f.colMeta[2*c], &f.rowMeta[n/16*32+n%16], bound, &admit[0], &f.est[0], ups, cols, rows, j0, n)
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

// allNegInf reports whether every bound is -Inf.
func allNegInf(bound []float32) bool {
	for _, b := range bound {
		if !math.IsInf(float64(b), -1) {
			return false
		}
	}
	return true
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
