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
	// ScratchBytes is the working memory the scan held beyond its
	// operands and their resident forms: per worker one tile (scanTile)
	// and the forms it derived for an operand without resident ones (a
	// *Matrix): the suffix factors and int8 codes of its R rows and the
	// packed panels, factors and int8 codes of one S block. For
	// TopKCandidates it also counts per worker the rows' bounds and the
	// most cells its candidate list held.
	ScratchBytes int64
	// KSteps is the scan's inner-loop work had every tile run to the end:
	// one step is one k of one R row against one 16-column panel.
	// KStepsSkipped is how much of it was not run, because a tile stopped
	// at a checkpoint, the int8 filter ruled it out, or all of a strip's
	// bounds were NaN.
	KSteps, KStepsSkipped int64
	// Int8Tiles is how many 4x32 int8 tiles the int8 filter or the
	// candidate sweep tested, and Int8RuledOut how many of them it ruled
	// out: no F32 tile ran for them, or they listed no candidate.
	Int8Tiles, Int8RuledOut int64
	// Rescored is how many candidate cells TopKCandidates computed in F32.
	Rescored int64
}

// add folds one worker's counts into st.
func (st *ScanStats) add(w ScanStats) {
	st.ScratchBytes += w.ScratchBytes
	st.KStepsSkipped += w.KStepsSkipped
	st.Int8Tiles += w.Int8Tiles
	st.Int8RuledOut += w.Int8RuledOut
	st.Rescored += w.Rescored
}

// ScanAbove is the fused similarity scan: it computes r·sᵀ tile by tile
// exactly as MulTransposeInto does — every cell is dotSeq of its two
// rows, bit for bit, whatever the kernel, options, shapes or parts — but
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
// Both sides are walked part by part (package doc, "Forms"): the tiles
// read each part's resident forms in place, and derive into scratch those
// of a *Matrix.
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
// ctx is polled once per S block (GemmOptions.BlockCols rows of a part
// of s, rounded to whole 16-row panels) on every worker.
func ScanAbove(ctx context.Context, r, s Side, bound []float32, opts GemmOptions, newVisitor func() ScanVisitor) (ScanStats, error) {
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
	rp, sp := r.parts(), s.parts()
	cuts := workerCuts(rp, workerRows(nr, opts))
	st := ScanStats{
		Blocks: blockCount(sp, opts.BlockCols),
		KSteps: int64(nr) * panelCount(sp) * int64(r.Cols()),
	}
	each := make([]ScanStats, len(cuts)-1)
	err := eachWorker(cuts, newVisitor, func(w, lo, hi int, visit ScanVisitor) error {
		return scanRows(ctx, rp, sp, ns, bound, lo, hi, opts, simd, visit, &each[w])
	})
	for _, ws := range each {
		st.add(ws)
	}
	return st, err
}

// Kernels names the forms the scans run on this build and host: the
// 4-row scan tile, "4x32 ZMM", "4x16 YMM" or "portable Go" where there is
// no assembly, and the int8 filter in front of it, "AMX" where its cells
// come from AMX tiles, "VNNI" where from VPDPBUSD, or "off".
func Kernels() (tile, int8 string) {
	switch {
	case !haveSIMD:
		tile = "portable Go"
	case useZMM:
		tile = "4x32 ZMM"
	default:
		tile = "4x16 YMM"
	}
	switch {
	case !haveSIMD || !useZMM || !useInt8:
		int8 = "off"
	case useAMX:
		int8 = "AMX"
	default:
		int8 = "VNNI"
	}
	return tile, int8
}

// blockCount is how many S blocks of at most bc rows the parts ps hold,
// and panelCount how many 16-row panels.
func blockCount(ps []Part, bc int) (n int) {
	for _, p := range ps {
		n += (p.Hi - p.Lo + bc - 1) / bc
	}
	return n
}

func panelCount(ps []Part) (n int64) {
	for _, p := range ps {
		n += int64(p.Hi-p.Lo+panelCols-1) / panelCols
	}
	return n
}

// workerRows is how many R rows each worker of a scan owns: one
// contiguous run of whole 4-row tiles, never shorter than a GEMM row
// panel, since a goroutine for a few rows costs more than it buys. The
// last worker owns what is left. opts has its defaults.
func workerRows(nr int, opts GemmOptions) int {
	return (max(opts.BlockRows, (nr+opts.Threads-1)/opts.Threads) + 3) &^ 3
}

// workerCuts splits the rows of the parts ps into runs of about step
// rows, one a worker: it returns the first row of each run and, last, the
// number of rows. A run starts at a part's start or a multiple of 4 rows
// into it, so that every 4-row strip lies in one part and on a multiple
// of 4 rows of its matrix (parts start on multiples of 16).
func workerCuts(ps []Part, step int) []int {
	cuts := []int{0}
	at := 0
	for _, p := range ps {
		n := p.Hi - p.Lo
		for off := 0; off < n; off += 4 {
			if at+off-cuts[len(cuts)-1] >= step {
				cuts = append(cuts, at+off)
			}
		}
		at += n
	}
	return append(cuts, at)
}

// eachWorker runs work for every worker's rows [lo, hi), the runs between
// consecutive cuts, with the visitor newVisitor returns for it. Visitors
// are made on the calling goroutine, in worker order, before any work
// starts; the work runs on one goroutine per worker when there are
// several. It returns the first worker's error, by worker order.
func eachWorker(cuts []int, newVisitor func() ScanVisitor, work func(w, lo, hi int, visit ScanVisitor) error) error {
	workers := len(cuts) - 1
	if workers == 1 {
		return work(0, cuts[0], cuts[1], newVisitor())
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		visit := newVisitor()
		go func() {
			defer wg.Done()
			errs[w] = work(w, cuts[w], cuts[w+1], visit)
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

// scanWorker is one worker's scratch: its tile, the forms it derives for
// a *Matrix operand (its own R rows, and the S block at hand), and its
// int8 filter.
type scanWorker struct {
	tile       scanTile
	tail       [4]float32 // the bounds of a run's last 1-3 rows, NaN-padded
	rows, cols Forms
	// rowM and colM are the rows the worker derives rows and cols from.
	rowM, colM Matrix
	q          quantizer
	filter     int8Filter
	runs       []rowRun
}

var workerPool sync.Pool

func getWorker() *scanWorker {
	w, _ := workerPool.Get().(*scanWorker)
	if w == nil {
		w = new(scanWorker)
		w.rows.q, w.cols.q = &w.q, &w.q
	}
	return w
}

// put returns w to the pool, keeping its storage and nothing it was
// pointed at.
func (w *scanWorker) put() {
	w.rows.reset(nil)
	w.cols.reset(nil)
	w.rowM, w.colM = Matrix{}, Matrix{}
	clear(w.runs)
	f := &w.filter
	f.r, f.rowMeta, f.s, f.corr, f.colMeta, f.cols = nil, nil, nil, nil, nil, nil
	workerPool.Put(w)
}

// derive points f, the worker's forms of m (rows or cols), at rows [lo,
// hi) of m, none built.
func (w *scanWorker) derive(f *Forms, m *Matrix, lo, hi int) {
	rows := &w.rowM
	if f == &w.cols {
		rows = &w.colM
	}
	*rows = Matrix{RowsN: hi - lo, ColsN: m.ColsN, Data: m.Data[lo*m.ColsN : hi*m.ColsN]}
	f.reset(rows)
}

// rowRun is the rows of one R part that a worker owns: rows [first,
// last) of matrix m, the first of them row at of the side, with forms f,
// in which row t of m is row t+off.
type rowRun struct {
	m           *Matrix
	f           *Forms
	first, last int
	at, off     int
}

// rowRuns lists the runs of the worker's side rows [lo, hi) of the parts
// ps. Rows of a part without resident forms get the worker's.
func (w *scanWorker) rowRuns(ps []Part, lo, hi int) []rowRun {
	runs := w.runs[:0]
	at := 0
	for i := range ps {
		p := &ps[i]
		n := p.Hi - p.Lo
		if a, b := max(lo, at), min(hi, at+n); a < b {
			run := rowRun{m: p.matrix(), f: p.Forms, first: p.Lo + a - at, last: p.Lo + b - at, at: a}
			if run.f == nil {
				w.derive(&w.rows, run.m, run.first, run.last)
				run.f, run.off = &w.rows, -run.first
			}
			runs = append(runs, run)
		}
		at += n
	}
	w.runs = runs
	return runs
}

// colBlock returns the forms of S block [sLo, sHi) of part p and the
// column of them its first row is: the part's resident forms, or the
// worker's, derived from the block.
func (w *scanWorker) colBlock(p *Part, sLo, sHi int) (*Forms, int) {
	if p.Forms != nil {
		return p.Forms, sLo
	}
	w.derive(&w.cols, p.m, sLo, sHi)
	return &w.cols, 0
}

// scanRows scans side rows [lo, hi) of r, the parts rp, against all of
// s, the parts sp of ns rows — mulPanelSIMD's loop: each S block is read
// once while the R rows stream past it, four at a time and then the last
// 1-3 of each part singly. Builds and hosts without the assembly kernel
// run the same loop with each tile computed by the portable kernels and
// compared in Go. It adds the k-steps it did not run, what its int8
// filter did and its scratch to st.
func scanRows(ctx context.Context, rp, sp []Part, ns int, bound []float32, lo, hi int, opts GemmOptions, simd bool, visit ScanVisitor, st *ScanStats) error {
	w := getWorker()
	defer w.put()
	d := rp[0].matrix().Cols()
	nc := 0
	if simd {
		nc = checkpoints(d)
	}
	runs := w.rowRuns(rp, lo, hi)
	var filter *int8Filter
	if simd && int8On(d, hi-lo, ns) {
		filter = &w.filter
		filter.start(d)
	}
	tile := &w.tile
	nan := float32(math.NaN())
	var skipped, colBytes int64
	next := min(1, nc) // the checkpoint the next 4-row tile tests first, 1..nc
	at := 0            // the side column of the part's first row
	for pi := range sp {
		p := &sp[pi]
		for sLo := p.Lo; sLo < p.Hi; sLo += opts.BlockCols {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("mat: scan cancelled at block (%d,%d): %w", lo, at+sLo-p.Lo, err)
			}
			sHi := min(sLo+opts.BlockCols, p.Hi)
			cf, c0 := w.colBlock(p, sLo, sHi)
			var packed, sfxS []float32
			if simd {
				packed = cf.packed()[c0*d:]
			}
			if nc > 0 {
				sfxS = cf.suffix()[c0*nc:]
			}
			if filter != nil {
				filter.nextBlock()
				filter.cols, filter.c0 = cf, c0
			}
			j := at + sLo - p.Lo // the side column of the block's first row
			width := sHi - sLo
			for ri := range runs {
				run := &runs[ri]
				var sfxR []float32
				if nc > 0 {
					sfxR = run.f.suffix()
				}
				if filter != nil {
					filter.r, filter.rowMeta = run.f.rowInt8()
				}
				// On AMX the strips take their masks from one amxKeep call
				// for the run's next 16 groups, made at the first strip the
				// filter tests (amxOn: a dense block); the forms rows from
				// amxAt to amxEnd have them.
				amxOn := filter != nil && filter.amxBlock(width)
				amxAt, amxEnd := 0, 0
				for t := run.first; t < run.last; t += 4 {
					rows := min(4, run.last-t)
					i := run.at + t - run.first // the side row
					fr := t + run.off           // the strip's row of its forms
					// Past that strip the keep words say which strips have
					// all bounds NaN or -Inf (flags) and which pairs the
					// others keep, and a run of whole strips that keep none
					// is counted at once.
					var word uint64
					fromAMX := amxOn && amxAt <= fr && fr < amxEnd
					if fromAMX {
						n := (fr - amxAt) / 4
						if word = filter.keep[n]; word == 0 && rows == 4 {
							m := n + 1 // past the last whole strip amxRun took, or one that is not 0
							for m < (amxEnd-amxAt)/4 && filter.keep[m] == 0 {
								m++
							}
							filter.tested += (m - n) * ((width + 2*panelCols - 1) / (2 * panelCols))
							skipped += int64((m-n)*rows*d) * int64((width+panelCols-1)/panelCols)
							next = min(next, nc)
							t += 4 * (m - n - 1)
							continue
						}
					}
					if word&amxNaN != 0 || !fromAMX && allNaN(bound[i:i+rows]) {
						// Nothing reaches a NaN bound (core gives one to
						// every row a pushed-down predicate excludes).
						skipped += int64(rows*d) * int64((width+panelCols-1)/panelCols)
						continue
					}
					// Every strip asks at least once per block, at the
					// last checkpoint, whether tiles have begun to stop.
					next = min(next, nc)
					// The int8 filter tests this strip's 4x32 tiles unless
					// its bounds are all -Inf, which every cell but a NaN
					// reaches. A run's last 1-3 rows are tested as a strip
					// whose missing rows have NaN bounds.
					sb := &bound[i]
					if rows < 4 {
						w.tail = [4]float32{nan, nan, nan, nan}
						copy(w.tail[:], bound[i:i+rows])
						sb = &w.tail[0]
					}
					filtering := word&amxNegInf == 0
					if !fromAMX {
						filtering = filter != nil && filter.samples(i-lo) && !allNegInf(bound[i:i+rows])
					}
					if filtering && !filter.blockReady {
						filter.prepareBlock()
					}
					if filtering && amxOn && !fromAMX {
						amxAt, amxEnd = filter.amxRun(fr, run.last+run.off, bound[i:], width)
						word, fromAMX = filter.keep[(fr-amxAt)/4], true
					}
					// A strip whose own visits change its bounds tests the
					// rest of its tiles one by one, against the new bounds.
					kept := word & (1<<amxPairs - 1) // the pairs some row keeps
					var was [4]float32
					if kept != 0 {
						copy(was[:], bound[i:i+rows])
					}
					for c, panels := 0, 0; c < width; c += panels * panelCols {
						panels = 1
						if filtering {
							// A block's lone last panel is tested with the
							// padding panel after it, which valid cuts off.
							panels = min(2, (width-c+panelCols-1)/panelCols)
							if fromAMX {
								ahead := kept >> (c / (2 * panelCols))
								if ahead == 0 {
									filter.tested += (width - c + 2*panelCols - 1) / (2 * panelCols)
									skipped += int64(rows*d) * int64((width-c+panelCols-1)/panelCols)
									break
								}
								n := bits.TrailingZeros64(ahead) // pairs ruled out before the next kept one
								filter.tested += n + 1
								filter.kept++
								skipped += int64(2 * n * rows * d)
								c += 2 * n * panelCols
								panels = min(2, (width-c+panelCols-1)/panelCols)
							} else if filter.tile(fr, c, sb, uint32(1)<<min(2*panelCols, width-c)-1) == 0 {
								skipped += int64(panels * rows * d)
								continue
							}
						}
						if rows < 4 {
							// One-row tiles for each of the 1-3 rows, over
							// the panels the filter kept.
							for u := range rows {
								if bound[i+u] != bound[i+u] {
									skipped += int64(panels * d)
									continue
								}
								for pp := range min(panels, (width-c+panelCols-1)/panelCols) {
									cp := c + pp*panelCols
									var m uint64
									if simd {
										mask, _, _ := tileGE(tile, &run.m.Data[(t+u)*d], 1, d, &packed[cp*d], width-cp, &bound[i+u], nil, nil, d)
										m = mask[0]
									} else {
										m = tileGEPortable(tile, run.m, cf.m, t+u, 1, c0+cp, min(panelCols, width-cp), bound[i+u:], opts.Kernel)
									}
									for m &= uint64(1)<<min(panelCols, width-cp) - 1; m != 0; m &= m - 1 {
										b := bits.TrailingZeros64(m)
										visit(i+u, j+cp+b, tile[b])
									}
								}
							}
							continue
						}
						var mask [2]uint64
						if simd {
							first := d
							var fa, fb *float32 // the strip's and its first panel's factors from first on
							if 1 <= next && next <= nc {
								first, fa, fb = next*16, &sfxR[factorAt(nc, fr, next)], &sfxS[factorAt(nc, c, next)]
							}
							var k int
							mask, panels, k = tileGE(tile, &run.m.Data[t*d], rows, d, &packed[c*d], width-c, &bound[i], fa, fb, first)
							skipped += int64(panels * rows * (d - k))
							// Neighbouring tiles stop at about the same k, so
							// the next one starts testing where this one
							// stopped: one checkpoint earlier if that was its
							// first test, one later (past the last: none) if
							// it never stopped.
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
							mask[0] = tileGEPortable(tile, run.m, cf.m, t, rows, c0+c, min(panelCols, width-c), bound[i:], opts.Kernel)
						}
						for pp, m := range mask[:panels] {
							// The zero-padded lanes of a tail panel hold 0,
							// which may well reach the bound: keep real
							// columns only.
							cp := c + pp*panelCols
							m &= (uint64(1)<<min(panelCols, width-cp) - 1) * 0x0001_0001_0001_0001
							for ; m != 0; m &= m - 1 {
								b := bits.TrailingZeros64(m)
								visit(i+b/panelCols, j+cp+b%panelCols, tile[pp*4*panelCols+b])
							}
						}
						if fromAMX && mask != [2]uint64{} && !sameBits(was[:], bound[i:i+4]) {
							fromAMX = false
						}
					}
				}
			}
			colBytes = max(colBytes, w.cols.Bytes())
		}
		at += p.Hi - p.Lo
	}
	st.KStepsSkipped += skipped
	st.ScratchBytes += int64(len(scanTile{}))*4 + w.rows.Bytes() + colBytes
	if filter != nil {
		filter.count()
		st.ScratchBytes += filter.scratch()
		st.Int8Tiles += filter.tiles
		st.Int8RuledOut += filter.ruled
	}
	return nil
}

// int8Filter is one worker's view of the int8 layouts (package doc, "Int8
// filter") of its R rows and of the S block at hand, for int8TileGE and
// int8TileEst, and its account of what it tested.
type int8Filter struct {
	d, d4 int
	// r and rowMeta are the R rows' forms' R layout, from its row 0; s,
	// corr and colMeta the S block's forms' S layout, from the block's
	// first column, c0 of cols. The block's are taken the first time one
	// of its tiles is tested.
	r          []byte
	rowMeta    []float32
	s          []byte
	corr       []int32
	colMeta    []float32
	cols       *Forms
	c0         int
	blockReady bool
	// The tiles tested and kept in this block, the block's number, and
	// whether it tests only a sample of its strips.
	tested, kept, block int
	sparse              bool
	// The tiles tested and ruled out over the whole scan.
	tiles, ruled int64
	// est receives a tile's estimates.
	est [260]float32
	// On AMX hosts (useAMX) amxKeep computes a dense block's masks, up to
	// amxGroups groups of 16 rows against up to amxPairs pairs of panels
	// a call, with the tile shapes cfg holds, two C tiles and each
	// group's bounds and screen in buf: keep holds per strip the pairs
	// some row keeps and its flags, masks each pair's columns.
	amx   bool
	cfg   amxConfig
	buf   [2*16*panelCols + 4*16*amxGroups]int32
	keep  [4 * amxGroups]uint64
	masks [4 * amxGroups * amxPairs]uint32
}

// amxGroups and amxPairs are the most 16-row groups and pairs of panels
// one amxKeep call takes: a 256-row run of a worker's rows against a
// 256-column block. A wider block's tiles are tested one by one.
const amxGroups, amxPairs = 16, 8

// amxNaN and amxNegInf flag a strip's keep word: the bounds of all its
// rows are NaN, or all are -Inf.
const amxNaN, amxNegInf = 1 << 62, 1 << 63

// amxConfig is LDTILECFG's 64 bytes for amxKeep's tiles over int8 rows
// of d4 bytes (palette 1; per tile its bytes a row from byte 16, two
// each, and its rows from byte 48): C in tmm0 and tmm1, 16 rows of 16
// int32; a whole 64-byte K chunk's A, 16 rows of codes, in tmm2 and its
// B, 16 rows of four codes by 16 columns, in tmm3 and tmm4; and the
// shorter last chunk's A and B in tmm5, tmm6 and tmm7 where d4 is not a
// multiple of 64.
type amxConfig [64]byte

func (c *amxConfig) setup(d4 int) {
	*c = amxConfig{0: 1}
	shape := func(t, rows, colsb int) {
		c[16+2*t], c[48+t] = byte(colsb), byte(rows)
	}
	for t := range 5 {
		shape(t, 16, 64)
	}
	if kl := d4 % 64; kl > 0 {
		shape(5, 16, kl)
		shape(6, kl/4, 64)
		shape(7, kl/4, 64)
	}
}

// The int8 filter runs on rows of 32 to 1024 elements (d <= 1024 keeps
// every int32 cell below 2^24, which float32 holds exactly), and only
// where it can pay: at least int8MinRows R rows per worker and
// int8MinCols S rows, so that the forms' codes are read often enough to
// be worth deriving. Tests lower the two to run the filter on every shape.
const int8MinDim, int8MaxDim = 32, 1024

var int8MinRows, int8MinCols = 64, 128

// int8On reports whether a worker with rows R rows of d elements each
// runs the int8 filter against ns S rows.
func int8On(d, rows, ns int) bool {
	return useInt8 && useZMM && int8MinDim <= d && d <= int8MaxDim && rows >= int8MinRows && ns >= int8MinCols
}

// start readies f for a scan of rows of d elements.
func (f *int8Filter) start(d int) {
	f.d, f.d4 = d, int8Width(d)
	f.tested, f.kept, f.block, f.sparse = 0, 0, -1, false // nextBlock starts the first block, 0
	f.tiles, f.ruled = 0, 0
	f.r, f.rowMeta = nil, nil
	if f.amx = useAMX; f.amx {
		f.cfg.setup(f.d4)
	}
}

// grow returns buf resliced to n, reallocated if it is too short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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
	f.count()
	f.block++
	f.blockReady = false
}

// count adds the block's tests to the scan's and starts the block's anew.
func (f *int8Filter) count() {
	f.tiles += int64(f.tested)
	f.ruled += int64(f.tested - f.kept)
	f.tested, f.kept = 0, 0
}

// samples reports whether the filter tests the 4-row strip starting at
// the worker's row n in this block.
func (f *int8Filter) samples(n int) bool {
	return !f.sparse || f.block%8 == 0 && n%32 == 0
}

// prepareBlock takes the S layout of the block: c0 on in cols.
func (f *int8Filter) prepareBlock() {
	codes, corr, meta := f.cols.colInt8()
	f.s, f.corr, f.colMeta = codes[f.c0*f.d4:], corr[f.c0:], meta[2*f.c0:]
	f.blockReady = true
}

// tile runs int8TileGE on rows n..n+3 of the R layout against the two
// panels from column c of the S block, both prepared, and returns the
// mask of the columns in valid some row may keep.
func (f *int8Filter) tile(n, c int, bound *float32, valid uint32) uint32 {
	keep := int8TileGE(&f.r[n*f.d4], f.d4, &f.s[c*f.d4], f.d4/4, &f.corr[c], &f.colMeta[2*c], &f.rowMeta[n/16*32+n%16], bound) & valid
	f.tested++
	if keep != 0 {
		f.kept++
	}
	return keep
}

// amxBlock reports whether the strips of this block of width columns
// take their masks from amxRun: on AMX, in a dense block, at most
// amxPairs pairs of panels wide.
func (f *int8Filter) amxBlock(width int) bool {
	return f.amx && !f.sparse && width <= amxPairs*2*panelCols
}

// amxRun computes with amxKeep the masks of the R layout's rows from fr
// (a strip's first) up to end, at most amxGroups groups of 16, against
// the prepared block of width columns; bound[0] is row fr's bound. The
// strip from row n's masks are then keep[(n-at)/4] and masks, for rows
// n up to to. Rows before fr and from end on have bound +Inf.
func (f *int8Filter) amxRun(fr, end int, bound []float32, width int) (at, to int) {
	at = fr &^ 15
	end = min(end, at+16*amxGroups)
	groups, pairs := (end-at+15)/16, (width+2*panelCols-1)/(2*panelCols)
	lead, tail := fr-at, end-(at+16*(groups-1))
	amxKeep(&f.cfg, &f.r[at*f.d4], f.d4, groups, &f.s[0], pairs, &f.corr[0], &f.colMeta[0], &f.rowMeta[2*at], &bound[0],
		lead, 0xffff<<lead&0xffff, 1<<tail-1, uint32(1)<<(width-2*panelCols*(pairs-1))-1, &f.buf[0], &f.masks[0], &f.keep[0])
	return at, end
}

// scratch is the memory the filter's tiles work in.
func (f *int8Filter) scratch() int64 {
	return int64(len(f.est)+len(f.buf)+len(f.masks))*4 + int64(len(f.cfg)) + int64(len(f.keep))*8
}

// tileEst is int8TileEst on rows n..n+3 of the R layout against the two
// panels from column c of the S block, with f.est for its estimates and
// no listing.
func (f *int8Filter) tileEst(n, c int, bound *float32, admit *[4]uint32) (keep01, keep23 uint64) {
	keep01, keep23, _ = f.tileList(n, c, bound, admit, nil, nil, nil, 0, n)
	return keep01, keep23
}

// tileList is int8TileEst on rows n..n+3 of the R layout against the two
// panels from column c of the S block, with f.est for its estimates,
// listing its cells from ups, cols and rows on (none if ups is nil),
// column numbers from j0 and row numbers from n0.
func (f *int8Filter) tileList(n, c int, bound *float32, admit *[4]uint32, ups *float32, cols, rows *int32, j0, n0 int) (keep01, keep23 uint64, listed int) {
	keep01, keep23, listed = int8TileEst(&f.r[n*f.d4], f.d4, &f.s[c*f.d4], f.d4/4, &f.corr[c], &f.colMeta[2*c], &f.rowMeta[n/16*32+n%16], bound, &admit[0], &f.est[0], ups, cols, rows, j0, n0)
	f.tested++
	if keep01|keep23 != 0 {
		f.kept++
	}
	return keep01, keep23, listed
}

// scanTile is a worker's tile scratch: up to two panels' 4x16 cells,
// panel-major, as tileGE writes them (mulPanelSIMD stores a 4x32 tile
// into it row-major).
type scanTile [2 * 4 * panelCols]float32

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
// compared in Go, row t with bound[t]. Same mask, same tile layout.
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
			if sim >= bound[t] {
				mask |= 1 << (t*panelCols + jj)
			}
		}
	}
	return mask
}
