package mat

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"ejoin/internal/vec"
)

// topKMaxK is the largest k TopKCandidates takes. A row's bound comes
// from k of its 32 lanes, and each of its k best cells and their near
// misses is re-scored by gathers, at several times a packed tile's cost
// a cell; a larger k is left to the scan with raised bounds.
const topKMaxK = 8

// topKChunk is the most S columns one pass of TopKCandidates takes: the
// cells of a 16-row group against them are held at once, 4 bytes each
// (128 KB at 2048). A wider S side is taken in chunks, the rows' lane
// maxima carried from one to the next; a narrower one in one chunk of
// its own width. It is 64 pairs of panels, so that a segment's tiles are
// counted in a word per strip (keptTiles).
const topKChunk = 2048

// topKForm names the form of the candidate top-k's cells: "AMX" where
// they come from AMX tiles (amxCells), "VPDPBUSD" where from int8Strip,
// "Go" where from the Go forms (a build without the assembly whose tests
// switch useInt8 on), or "scan" where TopKCandidates does not run and
// the top-k seeds and scans (topKByScan).
func topKForm() string {
	switch {
	case !useInt8:
		return "scan"
	case !haveSIMD:
		return "Go"
	case !useZMM:
		return "scan"
	case useAMX:
		return "AMX"
	}
	return "VPDPBUSD"
}

// TopKCandidatesOn reports whether TopKCandidates runs for a top-k of k
// over nr R rows and ns S rows of d elements under opts: with the SIMD
// kernel, on hosts and shapes where the int8 filter runs (every worker
// of the scan's split at least int8MinRows R rows), for k <= topKMaxK.
func TopKCandidatesOn(nr, ns, d, k int, opts GemmOptions) bool {
	opts = opts.withDefaults()
	if nr <= 0 || ns <= 0 || k < 1 || k > topKMaxK || opts.Kernel != vec.KernelSIMD || topKForm() == "scan" ||
		int64(nr)*int64(d) > math.MaxInt32 || int64(ns)*int64(d) > math.MaxInt32 {
		return false
	}
	step := workerRows(nr, opts)
	return int8Shape(d, nr-(nr-1)/step*step, ns)
}

// TopKCandidates is the top-k form of ScanAbove (package doc, "Top-k by
// candidates"). bound[i] is at most the k-th best similarity of R row i
// among the cells its consumer ranks (-Inf if nothing is known yet), and
// a NaN bound leaves the row out. For every other row it visits, in
// ascending j, a set of cells of the S rows keepCol keeps (nil keeps
// all) that holds every cell whose similarity reaches both bound[i] and
// the row's k-th best among those S rows; NaN cells are never visited.
// Every visited similarity is dotSeq's bits. A consumer that keeps each
// row's k best of what it is handed, ties to the earlier arrival,
// therefore ends with exactly the k best, ties to the lower j.
//
// Two int8 passes over each 16-row group's cells bound each row's k-th
// best from below and list the columns whose upper estimate can reach
// it; only those are computed in F32. ScanStats counts the whole
// product's k-steps and, as skipped, those of the F32 pass not run:
// each 16 re-scored cells run d steps. Workers split r, and both sides
// are walked part by part, as in ScanAbove, and newVisitor and ctx are
// used as there, ctx polled before each 16-row group's passes over each
// chunk of S (topKChunk); bound is only read. opts.BlockCols is not
// used. It runs only where TopKCandidatesOn says so.
func TopKCandidates(ctx context.Context, r, s Side, k int, bound []float32, keepCol func(int) bool, opts GemmOptions, newVisitor func() ScanVisitor) (ScanStats, error) {
	if r.Cols() != s.Cols() {
		return ScanStats{}, fmt.Errorf("mat: inner dimensions differ: %d vs %d", r.Cols(), s.Cols())
	}
	if len(bound) != r.Rows() {
		return ScanStats{}, fmt.Errorf("mat: %d bounds for %d rows", len(bound), r.Rows())
	}
	nr, ns, d := r.Rows(), s.Rows(), r.Cols()
	if !TopKCandidatesOn(nr, ns, d, k, opts) {
		return ScanStats{}, fmt.Errorf("mat: no int8 top-%d for %dx%d rows of %d on this host", k, nr, ns, d)
	}
	opts = opts.withDefaults()
	form := topKForm()
	rp, sp := r.parts(), s.parts()
	cuts := workerCuts(rp, workerRows(nr, opts))
	each := make([]ScanStats, len(cuts)-1)
	err := eachWorker(cuts, newVisitor, func(w, lo, hi int, visit ScanVisitor) error {
		return topKRows(ctx, form, rp, sp, k, bound, lo, hi, keepCol, visit, &each[w])
	})
	st := ScanStats{
		Blocks: each[0].Blocks,
		KSteps: int64(nr) * panelCount(sp) * int64(d),
	}
	st.KStepsSkipped = st.KSteps
	for _, ws := range each {
		st.add(ws)
	}
	return st, err
}

// topKWorker is one TopKCandidates worker's state beside its scanWorker.
// Its R rows are taken in 16-row groups of their forms' R layout, run by
// run; the rows of a group the worker does not own (a run may start or
// end inside one) are never live. Slot 16g+u is row u of group g.
type topKWorker struct {
	k      int
	groups []topKGroup
	// live, per group, has a bit for each slot the worker owns whose
	// bound is not NaN.
	live []uint16
	// kth, per slot, starts at the row's bound and is raised to the k-th
	// largest of the row's 32 lanes, the largest lower estimate it has
	// met in each lane (column mod 32), -Inf before any. Slot 16g+u's
	// lanes are lanes[32(16g+u):][:32] when S takes several chunks (carry),
	// and lanes[32u:][:32], cleared for each group, when it takes one.
	kth   []float32
	lanes []float32
	carry bool
	// cells holds a group's int32 cells against the chunk at hand: row u's
	// column c of the chunk at cells[u*ldc+c]. ldc is a panel more than
	// the chunk, so that the 16 rows do not share cache sets.
	cells []int32
	ldc   int
	// segs are the chunk's runs of columns of one S part each, and admit,
	// per 32 columns of each, one bit per column keepCol keeps.
	segs  []topKSeg
	admit []uint32
	// ups, cols and rows list the cells whose upper estimate reached their
	// row's kth when listed: cols are side columns, rows slots. Each span
	// is a run of them of one R run and one S part, row by row in
	// ascending column.
	ups        []float32
	cols, rows []int32
	spans      []topKSpan
	cfg        amxConfig
}

// topKGroup is 16 rows of run's forms from fr, a multiple of 16.
type topKGroup struct{ run, fr int }

// topKSeg is rows [lo, hi) of S part part, side columns from j, at
// column at of the chunk (a multiple of 32), with its S layout from lo:
// codes, corr and meta; its pairs of panels, from admit[admit] on, and
// how many of them admit some column.
type topKSeg struct {
	part, lo, hi, j, at int
	codes               []byte
	corr                []int32
	meta                []float32
	pairs, admit, used  int
}

// topKSpan is list entries [from, to) of R run run and S part part.
type topKSpan struct{ from, to, run, part int }

var topKPool sync.Pool

// topKRows runs TopKCandidates, in its form, for side rows [lo, hi) of
// the parts rp against the parts sp. It adds to st the chunks it took,
// the F32 k-steps it ran, as negative skipped ones, the 4x32 tiles it
// tested and those that listed no cell, the cells it re-scored and the
// bytes of working memory it held.
func topKRows(ctx context.Context, form string, rp, sp []Part, k int, bound []float32, lo, hi int, keepCol func(int) bool, visit ScanVisitor, st *ScanStats) error {
	sw := getWorker()
	defer sw.put()
	d := rp[0].matrix().Cols()
	d4 := int8Width(d)
	runs := sw.rowRuns(rp, lo, hi)
	w, _ := topKPool.Get().(*topKWorker)
	if w == nil {
		w = new(topKWorker)
	}
	defer topKPool.Put(w)
	w.k = k
	w.groups = w.groups[:0]
	for x, run := range runs {
		run.f.rowInt8()
		for g := (run.first + run.off) &^ 15; g < run.last+run.off; g += 16 {
			w.groups = append(w.groups, topKGroup{x, g})
		}
	}
	width := 0 // the columns of every part, each from a multiple of 32
	for _, p := range sp {
		width += (p.Hi - p.Lo + 2*panelCols - 1) &^ (2*panelCols - 1)
	}
	chunk := min(width, topKChunk)
	w.carry = width > chunk
	slots := 16 * len(w.groups)
	w.live, w.kth = grow(w.live, len(w.groups)), grow(w.kth, slots)
	if w.carry {
		w.lanes = grow(w.lanes, 32*slots)
	} else {
		w.lanes = grow(w.lanes, 32*16)
	}
	negInf, nan := float32(math.Inf(-1)), float32(math.NaN())
	for i := range w.lanes {
		w.lanes[i] = negInf
	}
	for gi, g := range w.groups {
		run := &runs[g.run]
		w.live[gi] = 0
		for u := range 16 {
			w.kth[16*gi+u] = nan
			if fr := g.fr + u; run.first+run.off <= fr && fr < run.last+run.off {
				b := bound[run.at+fr-run.off-run.first]
				w.kth[16*gi+u] = b
				if b == b {
					w.live[gi] |= 1 << u
				}
			}
		}
	}
	w.ldc = chunk + panelCols
	w.cells = grow(w.cells, 16*w.ldc)
	if form == "AMX" {
		w.cfg.setupCells(d4)
	}
	w.ups, w.cols, w.rows, w.spans, w.segs = w.ups[:0], w.cols[:0], w.rows[:0], w.spans[:0], w.segs[:0]

	var ran, colBytes int64
	chunks := 0
	take := func() error {
		chunks++
		if err := w.chunk(ctx, form, sw, runs, sp, d4, keepCol, st); err != nil {
			return err
		}
		colBytes = max(colBytes, sw.cols.Bytes())
		// A list far longer than the cells still in play is cut to the
		// rows' kth now, and one still long is re-scored and visited now:
		// its cells precede every later chunk's.
		if limit := 16 * chunk; len(w.cols) > limit {
			w.cut()
			if len(w.cols) > limit/2 {
				ran += w.rescore(form, runs, sp, d, visit, st)
			}
		}
		w.segs = w.segs[:0]
		return nil
	}
	used, at := 0, 0 // the chunk's columns so far; the side column of the part's first row
	for pi := range sp {
		p := &sp[pi]
		for sLo := p.Lo; sLo < p.Hi; {
			sHi := min(p.Hi, sLo+chunk-used)
			w.segs = append(w.segs, topKSeg{part: pi, lo: sLo, hi: sHi, j: at + sLo - p.Lo, at: used})
			used += (sHi - sLo + 2*panelCols - 1) &^ (2*panelCols - 1)
			sLo = sHi
			if used == chunk {
				if err := take(); err != nil {
					return err
				}
				used = 0
			}
		}
		at += p.Hi - p.Lo
	}
	if used > 0 {
		if err := take(); err != nil {
			return err
		}
	}
	if chunks > 1 {
		w.cut()
	}
	ran += w.rescore(form, runs, sp, d, visit, st)
	st.Blocks = chunks
	st.KStepsSkipped -= ran
	st.ScratchBytes += sw.rows.Bytes() + colBytes + int64(len(w.cells)+len(w.kth)+len(w.lanes)+cap(w.admit))*4 + int64(len(w.live))*2 +
		int64(cap(w.ups)+cap(w.cols)+cap(w.rows))*4 + int64(len(w.cfg))
	return nil
}

// chunk runs both passes of every live group of the worker against the
// chunk's segments, listing their cells, and counts the tiles in st. It
// polls ctx before each group.
func (w *topKWorker) chunk(ctx context.Context, form string, sw *scanWorker, runs []rowRun, sp []Part, d4 int, keepCol func(int) bool, st *ScanStats) error {
	w.admit = w.admit[:0]
	for i := range w.segs {
		sg := &w.segs[i]
		cf, c0 := sw.colBlock(&sp[sg.part], sg.lo, sg.hi)
		codes, corr, meta := cf.colInt8()
		sg.codes, sg.corr, sg.meta = codes[c0*d4:], corr[c0:], meta[2*c0:]
		width := sg.hi - sg.lo
		sg.pairs, sg.admit, sg.used = (width+2*panelCols-1)/(2*panelCols), len(w.admit), 0
		for c := 0; c < width; c += 2 * panelCols {
			var m uint32
			for jj := range min(2*panelCols, width-c) {
				if keepCol == nil || keepCol(sg.j+c+jj) {
					m |= 1 << jj
				}
			}
			w.admit = append(w.admit, m)
			if m != 0 {
				sg.used++
			}
		}
	}
	for gi := range w.groups {
		live := w.live[gi]
		if live == 0 {
			continue
		}
		g := w.groups[gi]
		run := &runs[g.run]
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("mat: top-k cancelled at rows %d, columns %d: %w", run.at+max(g.fr, run.first+run.off)-run.off-run.first, w.segs[0].j, err)
		}
		var strips int // the group's strips with a live row
		for t := range 4 {
			if live>>(4*t)&15 != 0 {
				strips |= 1 << t
			}
		}
		codes, meta := run.f.rowInt8()
		r, row := codes[g.fr*d4:], meta[2*g.fr:]
		for i := range w.segs {
			w.cellsOf(form, r, d4, &w.segs[i], strips)
		}
		// The last segment's pass raises the rows' kth from their lanes.
		lanes, kth := w.lanes, w.kth[16*gi:16*gi+16]
		if w.carry {
			lanes = lanes[32*16*gi:]
		} else if gi > 0 {
			for i := range lanes {
				lanes[i] = float32(math.Inf(-1))
			}
		}
		for i := range w.segs {
			sg := &w.segs[i]
			k := 0
			if i == len(w.segs)-1 {
				k = w.k
			}
			if form == "Go" {
				topKLanesGo(w.cells[sg.at:], w.ldc, sg.pairs, sg.meta, row, w.admit[sg.admit:], uint32(live), d4/4, lanes, k, kth)
			} else {
				topKLanes(&w.cells[sg.at], w.ldc, sg.pairs, &sg.meta[0], &row[0], &w.admit[sg.admit], int(live), d4/4, &lanes[0], k, &kth[0])
			}
		}
		for i := range w.segs {
			sg := &w.segs[i]
			from := len(w.cols)
			w.list(form, sg, row, live, kth, 16*gi)
			tiles := bits.OnesCount(uint(strips)) * sg.used
			st.Int8Tiles += int64(tiles)
			st.Int8RuledOut += int64(tiles - w.keptTiles(from, sg.j, 16*gi))
			if len(w.cols) > from {
				w.spans = append(w.spans, topKSpan{from, len(w.cols), g.run, sg.part})
			}
		}
	}
	return nil
}

// cellsOf writes the cells of the group whose R layout is at r (of its
// strips marked in strips) against segment sg to the segment's columns
// of w.cells.
func (w *topKWorker) cellsOf(form string, r []byte, d4 int, sg *topKSeg, strips int) {
	out := w.cells[sg.at:]
	if form == "AMX" {
		amxCells(&w.cfg, &r[0], d4, &sg.codes[0], sg.pairs, &sg.corr[0], &out[0], w.ldc)
		return
	}
	for t := range 4 {
		if strips>>t&1 == 0 {
			continue
		}
		if form == "Go" {
			stripCellsGo(r[4*t*d4:], d4, sg.codes, d4, sg.corr, sg.pairs, out[4*t*w.ldc:], w.ldc)
		} else {
			int8Strip(&r[4*t*d4], d4, &sg.codes[0], d4/4, &sg.corr[0], sg.pairs, &out[4*t*w.ldc], w.ldc)
		}
	}
}

// list appends to the list the cells of segment sg whose upper estimate
// reaches their row's kth, for the group of slots from n0 with row meta
// row and live rows live.
func (w *topKWorker) list(form string, sg *topKSeg, row []float32, live uint16, kth []float32, n0 int) {
	if form == "Go" {
		w.ups, w.cols, w.rows = topKListGo(w.cells[sg.at:], w.ldc, sg.pairs, sg.meta, row, w.admit[sg.admit:], uint32(live), kth, w.ups, w.cols, w.rows, sg.j, n0)
		return
	}
	// The list keeps room for one row's every cell; a call lists rows
	// while that holds, and the next goes on from the first it did not.
	most := 2*panelCols*sg.pairs + panelCols
	for rest := int(live); rest != 0; {
		m := len(w.cols)
		w.ups, w.cols, w.rows = slices.Grow(w.ups, most), slices.Grow(w.cols, most), slices.Grow(w.rows, most)
		room := min(cap(w.ups), cap(w.cols), cap(w.rows)) - m
		var listed int
		listed, rest = topKList(&w.cells[sg.at], w.ldc, sg.pairs, &sg.meta[0], &row[0], &w.admit[sg.admit], rest, &kth[0], &w.ups[:m+1][m], &w.cols[:m+1][m], &w.rows[:m+1][m], sg.j, n0, room)
		w.ups, w.cols, w.rows = w.ups[:m+listed], w.cols[:m+listed], w.rows[:m+listed]
	}
}

// keptTiles is how many tiles, 4 rows by 32 columns of a segment from
// side column j0, the entries from from on of the group of slots from n0
// list a cell of.
func (w *topKWorker) keptTiles(from, j0, n0 int) int {
	if len(w.cols) == from {
		return 0
	}
	var kept [4]uint64 // per strip, its pairs (a segment has at most 64)
	for m := from; m < len(w.cols); m++ {
		kept[(w.rows[m]-int32(n0))>>2&3] |= 1 << ((w.cols[m] - int32(j0)) >> 5 & 63)
	}
	return bits.OnesCount64(kept[0]) + bits.OnesCount64(kept[1]) + bits.OnesCount64(kept[2]) + bits.OnesCount64(kept[3])
}

// cut drops the listed cells whose upper estimate is below their row's
// kth, keeping the order of the rest and the spans they are in.
func (w *topKWorker) cut() {
	m, kept := 0, 0
	for _, sp := range w.spans {
		from := m
		for x := sp.from; x < sp.to; x++ {
			n := w.rows[x]
			w.ups[m], w.cols[m], w.rows[m] = w.ups[x], w.cols[x], n
			if !(w.ups[x] < w.kth[n]) {
				m++
			}
		}
		if m > from {
			w.spans[kept] = topKSpan{from, m, sp.run, sp.part}
			kept++
		}
	}
	w.ups, w.cols, w.rows, w.spans = w.ups[:m], w.cols[:m], w.rows[:m], w.spans[:kept]
}

// rescore computes the listed cells in F32, sixteen cells a call, each
// call's cells of one R run and one S part, and visits those that are
// not NaN, then empties the list. The spans are taken part by part and,
// within a part, run by run in list order, so each row's cells are
// visited in ascending j. It returns the k-steps it ran.
func (w *topKWorker) rescore(form string, runs []rowRun, sp []Part, d int, visit ScanVisitor, st *ScanStats) (ran int64) {
	slices.SortStableFunc(w.spans, func(a, b topKSpan) int { return cmp.Or(a.part-b.part, a.run-b.run) })
	var ri, sj [16]int32
	var vi, vj [16]int
	var sims [16]float32
	cells, run, part, pat := 0, -1, -1, 0 // the batch; its run and part, and the part's first side column
	flush := func() {
		if cells == 0 {
			return
		}
		rm, sm := runs[run].m, sp[part].matrix()
		if form == "Go" {
			dotPairsGo(sims[:], rm.Data, sm.Data, ri[:], sj[:], d, cells)
		} else {
			dotPairs(&sims[0], &rm.Data[0], &sm.Data[0], &ri[0], &sj[0], d, cells)
		}
		ran += int64(d)
		st.Rescored += int64(cells)
		for l := range cells {
			if sim := sims[l]; sim == sim {
				visit(vi[l], vj[l], sim)
			}
		}
		cells = 0
	}
	for _, s := range w.spans {
		if s.run != run || s.part != part {
			flush()
			for ; part < s.part; part++ {
				if part >= 0 {
					pat += sp[part].Hi - sp[part].Lo
				}
			}
			run = s.run
		}
		rr := &runs[run]
		for x := s.from; x < s.to; x++ {
			n := int(w.rows[x])
			i := w.groups[n/16].fr + n%16 - rr.off // the row of rr's matrix
			col := int(w.cols[x])
			ri[cells], sj[cells] = int32(i*d), int32((sp[part].Lo+col-pat)*d)
			vi[cells], vj[cells] = rr.at+i-rr.first, col
			if cells++; cells == 16 {
				flush()
			}
		}
	}
	flush()
	w.ups, w.cols, w.rows, w.spans = w.ups[:0], w.cols[:0], w.rows[:0], w.spans[:0]
	return ran
}
