package mat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"ejoin/internal/vec"
)

// topKMaxK is the largest k TopKCandidates takes. A row's bound comes
// from k of its tiles, and each of its k best cells and their near
// misses is re-scored by gathers, at several times a packed tile's cost
// a cell; a larger k is left to the scan with raised bounds.
const topKMaxK = 8

// TopKCandidatesOn reports whether TopKCandidates runs for a top-k of k
// over nr R rows and ns S rows of d elements under opts: with the SIMD
// kernel, on hosts and shapes where the int8 filter runs (every worker
// of the scan's split at least int8MinRows R rows), for k <= topKMaxK.
func TopKCandidatesOn(nr, ns, d, k int, opts GemmOptions) bool {
	opts = opts.withDefaults()
	if nr <= 0 || ns <= 0 || k < 1 || k > topKMaxK || opts.Kernel != vec.KernelSIMD ||
		int64(nr)*int64(d) > math.MaxInt32 || int64(ns)*int64(d) > math.MaxInt32 {
		return false
	}
	step := workerRows(nr, opts)
	return int8On(d, nr-(nr-1)/step*step, ns)
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
// One int8 pass bounds each row's k-th best from below and lists the
// columns whose upper estimate can reach it; only those are computed in
// F32. ScanStats counts the whole product's k-steps and, as skipped,
// those of the F32 pass not run: each 16 re-scored cells run d steps.
// Workers split r, and both sides are walked part by part, as in
// ScanAbove, and newVisitor and ctx are used as there; bound is only
// read. It runs only where TopKCandidatesOn says so.
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
	// Whole 4x32 int8 tiles per S block, and at least the k the seed
	// takes.
	bc := max(k*2*panelCols, (opts.BlockCols+2*panelCols-1)&^(2*panelCols-1))
	rp, sp := r.parts(), s.parts()
	cuts := workerCuts(rp, workerRows(nr, opts))
	each := make([]ScanStats, len(cuts)-1)
	err := eachWorker(cuts, newVisitor, func(w, lo, hi int, visit ScanVisitor) error {
		return topKRows(ctx, rp, sp, k, bound, lo, hi, bc, keepCol, visit, &each[w])
	})
	st := ScanStats{
		Blocks: blockCount(sp, bc),
		KSteps: int64(nr) * panelCount(sp) * int64(d),
	}
	st.KStepsSkipped = st.KSteps
	for _, ws := range each {
		st.add(ws)
	}
	return st, err
}

// topKWorker is one TopKCandidates worker's state beside its scanWorker,
// per slot n of its rows: its runs' rows in order, each run from a
// multiple of 4 (base), so that a 4-row strip of a run is a strip of
// slots; the 1-3 slots that pad a run's last strip are never live.
type topKWorker struct {
	k    int
	base []int
	// lows[n*k:][:fill[n]] holds, ascending, the largest per-tile lower
	// estimates above kth[n] that slot n has met, at most k; kth[n] starts
	// at the row's bound and is raised to their least whenever there are
	// k.
	kth  []float32
	lows []float32
	fill []int32
	// live holds, per 4-slot strip, a bit for each of its rows whose bound
	// is not NaN; admit, per 32 columns of the S block, one for each
	// column keepCol keeps.
	live  []uint8
	admit []uint32
	// ups, cols and rows list every cell whose upper estimate reached its
	// row's kth when the sweep met it, in the order met: ascending column
	// per row; cols are side columns, rows slots.
	ups        []float32
	cols, rows []int32
}

var topKPool sync.Pool

// topKRows runs TopKCandidates for side rows [lo, hi) of the parts rp
// against the parts sp, in S blocks of bc rows, a multiple of 32. It adds
// to st the F32 k-steps it ran, as negative skipped ones, the tiles it
// tested and ruled out, the cells it re-scored and the bytes of working
// memory it held.
func topKRows(ctx context.Context, rp, sp []Part, k int, bound []float32, lo, hi, bc int, keepCol func(int) bool, visit ScanVisitor, st *ScanStats) error {
	sw := getWorker()
	defer sw.put()
	d := rp[0].matrix().Cols()
	runs := sw.rowRuns(rp, lo, hi)
	f := &sw.filter
	f.start(d)
	w, _ := topKPool.Get().(*topKWorker)
	if w == nil {
		w = new(topKWorker)
	}
	defer topKPool.Put(w)
	w.k = k
	w.base = grow(w.base, len(runs))
	slots := 0
	for x, run := range runs {
		w.base[x] = slots
		slots += (run.last - run.first + 3) &^ 3
	}
	w.kth, w.lows, w.fill = grow(w.kth, slots), grow(w.lows, slots*k), grow(w.fill, slots)
	w.live, w.admit = grow(w.live, slots/4), grow(w.admit, bc/32)
	w.ups, w.cols, w.rows = w.ups[:0], w.cols[:0], w.rows[:0]
	clear(w.fill)
	clear(w.live)
	for x, run := range runs {
		for t := run.first; t < run.last; t++ {
			n := w.base[x] + t - run.first
			w.kth[n] = bound[run.at+t-run.first]
			if b := w.kth[n]; b == b {
				w.live[n/4] |= 1 << (n % 4)
			}
		}
		run.f.rowInt8()
	}
	limit, most, colBytes := 8*slots, 0, int64(0)
	at, first := 0, true // the side column of the part's first row; whether this is the first block
	for pi := range sp {
		p := &sp[pi]
		for sLo := p.Lo; sLo < p.Hi; sLo += bc {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("mat: top-k cancelled at block (%d,%d): %w", lo, at+sLo-p.Lo, err)
			}
			sHi := min(sLo+bc, p.Hi)
			f.nextBlock()
			f.cols, f.c0 = sw.colBlock(p, sLo, sHi)
			f.prepareBlock()
			width, j := sHi-sLo, at+sLo-p.Lo
			lanes := (width + 2*panelCols - 1) &^ (2*panelCols - 1)
			for c := 0; c < lanes; c += 2 * panelCols {
				var m uint32
				for jj := range min(2*panelCols, width-c) {
					if keepCol == nil || keepCol(j+c+jj) {
						m |= 1 << jj
					}
				}
				w.admit[c/32] = m
			}
			for x, run := range runs {
				f.r, f.rowMeta = run.f.rowInt8()
				for t := run.first; t < run.last; t += 4 {
					n := w.base[x] + t - run.first
					live := w.live[n/4]
					if live == 0 {
						continue
					}
					fr := t + run.off
					seeded := 0 // the columns whose tiles seed has taken
					if first {
						seeded = w.seed(f, fr, n, live, lanes)
					}
					for c := 0; c < lanes; c += 2 * panelCols {
						if w.admit[c/32] != 0 {
							w.sweep(f, fr, n, c, j+c, live, c >= seeded)
						}
					}
				}
			}
			first = false
			colBytes = max(colBytes, sw.cols.Bytes())
			// Drop what can no longer reach its row's kth once the list
			// has doubled, so it holds about the cells still in play.
			most = max(most, len(w.ups))
			if len(w.ups) > limit {
				w.trim()
				limit = max(limit, 2*len(w.ups))
			}
		}
		at += p.Hi - p.Lo
	}
	w.trim()

	// Re-score the survivors in F32, sixteen cells a call, run by run and
	// in list order within a run, a call's cells all of one S part: so
	// each row's cells are still visited in ascending j.
	var ran int64
	var ri, sj [16]int32
	var vi, vj [16]int
	var sims [16]float32
	for x, run := range runs {
		sb, se := w.base[x], w.base[x]+run.last-run.first
		pi, pat := 0, 0 // the S part of the cells and its first side column
		cells := 0
		flush := func() {
			if cells == 0 {
				return
			}
			dotPairs(&sims[0], &run.m.Data[0], &sp[pi].matrix().Data[0], &ri[0], &sj[0], d, cells)
			ran += int64(d)
			st.Rescored += int64(cells)
			for l := range cells {
				if sim := sims[l]; sim == sim {
					visit(vi[l], vj[l], sim)
				}
			}
			cells = 0
		}
		for q, n32 := range w.rows {
			n := int(n32)
			if n < sb || n >= se {
				continue
			}
			col := int(w.cols[q])
			for col >= pat+sp[pi].Hi-sp[pi].Lo {
				flush()
				pat += sp[pi].Hi - sp[pi].Lo
				pi++
			}
			ri[cells], sj[cells] = int32((run.first+n-sb)*d), int32((sp[pi].Lo+col-pat)*d)
			vi[cells], vj[cells] = run.at+n-sb, col
			if cells++; cells == 16 {
				flush()
			}
		}
		flush()
	}
	f.count()
	st.KStepsSkipped -= ran
	st.Int8Tiles += f.tiles
	st.Int8RuledOut += f.ruled
	st.ScratchBytes += sw.rows.Bytes() + colBytes + int64(len(f.est))*4 + int64(slots)*int64(4*k+9) + int64(bc/32)*4 + int64(most+listSlack)*12
	return nil
}

// listSlack is the room a tile needs past the list's end: 128 cells and
// the 16 entries int8TileEst may write past them.
const listSlack = 4*2*panelCols + panelCols

// rowAdmit is the per-row admit masks of a tile of the strip whose live
// rows live marks, against columns admit keeps.
func rowAdmit(live uint8, admit uint32) [4]uint32 {
	var a [4]uint32
	for t := range a {
		if live>>t&1 != 0 {
			a[t] = admit
		}
	}
	return a
}

// seed raises the kth of the strip of slots n..n+3 (those of them live
// marks), rows fr.. of the R layout, before the sweep, from the per-tile
// largest lower estimates of the first k tiles of block 0, so that the
// sweep does not list nearly every cell of those tiles while kth is still
// -Inf. It returns how many columns those tiles cover: they are taken,
// and the sweep must not take them again.
func (w *topKWorker) seed(f *int8Filter, fr, n int, live uint8, lanes int) int {
	all := [4]float32{float32(math.Inf(-1)), float32(math.Inf(-1)), float32(math.Inf(-1)), float32(math.Inf(-1))}
	seeded := min(lanes, w.k*2*panelCols)
	for c := 0; c < seeded; c += 2 * panelCols {
		admit := rowAdmit(live, w.admit[c/32])
		keep01, keep23 := f.tileEst(fr, c, &all[0], &admit)
		w.take(f, n, keep01, keep23)
	}
	return seeded
}

// sweep runs the tile of the strip of slots n..n+3 (those of them live
// marks), rows fr.. of the R layout, and the two panels from column c of
// the S block, side column j0, against the rows' kth: it lists the cells
// whose upper estimate reaches its row's kth or is NaN and, unless seed
// has taken the tile (fresh is false), raises the kth.
func (w *topKWorker) sweep(f *int8Filter, fr, n, c, j0 int, live uint8, fresh bool) {
	m := len(w.ups)
	ups, cols, rows := slices.Grow(w.ups, listSlack), slices.Grow(w.cols, listSlack), slices.Grow(w.rows, listSlack)
	admit := rowAdmit(live, w.admit[c/32])
	keep01, keep23, listed := f.tileList(fr, c, &w.kth[n], &admit, &ups[:m+1][m], &cols[:m+1][m], &rows[:m+1][m], j0, n)
	w.ups, w.cols, w.rows = ups[:m+listed], cols[:m+listed], rows[:m+listed]
	if fresh {
		w.take(f, n, keep01, keep23)
	}
}

// take lets the largest lower estimate in f.est of each row of the strip
// from slot n whose mask (keep01, keep23) is not 0 join the row's largest
// if it is above the row's kth. Tiles are distinct cells, so k of them
// bound the row's k-th best.
func (w *topKWorker) take(f *int8Filter, n int, keep01, keep23 uint64) {
	for t, keep := range [4]uint32{uint32(keep01), uint32(keep01 >> 32), uint32(keep23), uint32(keep23 >> 32)} {
		if lo := f.est[256+t]; keep != 0 && lo > w.kth[n+t] {
			w.insert(n+t, lo)
		}
	}
}

// insert adds lo, above kth[n], to row n's largest lower estimates,
// dropping the least once it holds k, and raises kth[n] to the least
// once it does: k cells' lower estimates bound the row's k-th best.
func (w *topKWorker) insert(n int, lo float32) {
	a := w.lows[n*w.k : (n+1)*w.k]
	if m := int(w.fill[n]); m < w.k {
		p := m
		for ; p > 0 && a[p-1] > lo; p-- {
			a[p] = a[p-1]
		}
		a[p] = lo
		if w.fill[n]++; m+1 < w.k {
			return
		}
	} else {
		p := 0
		for ; p+1 < w.k && a[p+1] < lo; p++ {
			a[p] = a[p+1]
		}
		a[p] = lo
	}
	w.kth[n] = a[0]
}

// trim drops the listed cells whose upper estimate is below their row's
// kth, keeping the order of the rest.
func (w *topKWorker) trim() {
	m := 0
	for x, up := range w.ups {
		n := w.rows[x]
		w.ups[m], w.cols[m], w.rows[m] = up, w.cols[x], n
		if !(up < w.kth[n]) {
			m++
		}
	}
	w.ups, w.cols, w.rows = w.ups[:m], w.cols[:m], w.rows[:m]
}
