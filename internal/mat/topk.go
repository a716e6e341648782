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
// Workers split r as ScanAbove's do, and newVisitor and ctx are used as
// there; bound is only read. It runs only where TopKCandidatesOn says
// so.
func TopKCandidates(ctx context.Context, r, s *Matrix, k int, bound []float32, keepCol func(int) bool, opts GemmOptions, newVisitor func() ScanVisitor) (ScanStats, error) {
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
	step := workerRows(nr, opts)
	workers := (nr + step - 1) / step
	ran, scratch := make([]int64, workers), make([]int64, workers)
	err := eachWorker(nr, step, newVisitor, func(w, lo, hi int, visit ScanVisitor) (err error) {
		ran[w], scratch[w], err = topKRows(ctx, r, s, k, bound, lo, hi, bc, keepCol, visit)
		return err
	})
	st := ScanStats{
		Blocks: (ns + bc - 1) / bc,
		KSteps: int64(nr) * int64((ns+panelCols-1)/panelCols) * int64(d),
	}
	st.KStepsSkipped = st.KSteps
	for w := range workers {
		st.KStepsSkipped -= ran[w]
		st.ScratchBytes += scratch[w]
	}
	return st, err
}

// topKWorker is one TopKCandidates worker's state beside its int8Filter,
// per row n of its rows.
type topKWorker struct {
	k int
	// lows[n*k:][:fill[n]] holds, ascending, the largest per-tile lower
	// estimates above kth[n] that row n has met, at most k; kth[n] starts
	// at the row's bound and is raised to their least whenever there are
	// k.
	kth  []float32
	lows []float32
	fill []int32
	// live holds, per 4-row strip, a bit for each of its rows whose bound
	// is not NaN; admit, per 32 columns of the S block, one for each
	// column keepCol keeps.
	live  []uint8
	admit []uint32
	// ups, cols and rows list every cell whose upper estimate reached its
	// row's kth when the sweep met it, in the order met: ascending column
	// per row.
	ups        []float32
	cols, rows []int32
}

var topKPool sync.Pool

// topKRows runs TopKCandidates for rows [rLo, rHi) of r against S blocks
// of bc rows, a multiple of 32. It returns the F32 k-steps it ran and the
// bytes of working memory it held.
func topKRows(ctx context.Context, r, s *Matrix, k int, bound []float32, rLo, rHi, bc int, keepCol func(int) bool, visit ScanVisitor) (ran, scratch int64, err error) {
	d, ns, rows := r.Cols(), s.Rows(), rHi-rLo
	rows4 := (rows + 3) &^ 3
	f := newInt8Filter(d, rows4, bc)
	defer f.release()
	w, _ := topKPool.Get().(*topKWorker)
	if w == nil {
		w = new(topKWorker)
	}
	defer topKPool.Put(w)
	w.k = k
	w.kth, w.lows, w.fill = grow(w.kth, rows4), grow(w.lows, rows4*k), grow(w.fill, rows4)
	w.live, w.admit = grow(w.live, rows4/4), grow(w.admit, bc/32)
	w.ups, w.cols, w.rows = w.ups[:0], w.cols[:0], w.rows[:0]
	clear(w.fill)
	clear(w.live)
	copy(w.kth, bound[rLo:rHi])
	for n := range rows {
		if b := bound[rLo+n]; b == b {
			w.live[n/4] |= 1 << (n % 4)
		}
	}
	// Quantize the rows a block's worth at a time (quantize's scratch),
	// in whole groups of 16 for rowMeta's layout. The 1-3 rows that pad
	// the last strip are never live: their codes are whatever is there.
	for lo := 0; lo < rows; lo += bc {
		f.quantize(&r.Data[(rLo+lo)*d], min(bc, rows-lo), &f.r[lo*f.d4], f.d4, 4, 0x80808080, f.rowMeta[lo/16*32:])
	}
	limit, most := 8*rows4, 0
	for sLo := 0; sLo < ns; sLo += bc {
		if err := ctx.Err(); err != nil {
			return 0, 0, fmt.Errorf("mat: top-k cancelled at block (%d,%d): %w", rLo, sLo, err)
		}
		sHi := min(sLo+bc, ns)
		lanes := (sHi - sLo + 2*panelCols - 1) &^ (2*panelCols - 1)
		f.packBlock(s, sLo, sHi, lanes)
		for c := 0; c < lanes; c += 2 * panelCols {
			var m uint32
			for jj := range min(2*panelCols, sHi-sLo-c) {
				if keepCol == nil || keepCol(sLo+c+jj) {
					m |= 1 << jj
				}
			}
			w.admit[c/32] = m
		}
		for n := 0; n < rows; n += 4 {
			live := w.live[n/4]
			if live == 0 {
				continue
			}
			seeded := 0 // the columns whose tiles seed has taken
			if sLo == 0 {
				seeded = w.seed(f, n, live, lanes)
			}
			for c := 0; c < lanes; c += 2 * panelCols {
				if w.admit[c/32] != 0 {
					w.sweep(f, n, c, sLo+c, live, c >= seeded)
				}
			}
		}
		// Drop what can no longer reach its row's kth once the list has
		// doubled, so it holds about the cells still in play.
		most = max(most, len(w.ups))
		if len(w.ups) > limit {
			w.trim()
			limit = max(limit, 2*len(w.ups))
		}
	}
	w.trim()

	// Re-score the survivors in F32, sixteen cells a call, in list order.
	var ri, sj [16]int32
	var sims [16]float32
	for lo := 0; lo < len(w.ups); lo += 16 {
		cells := min(16, len(w.ups)-lo)
		for l := range cells {
			ri[l], sj[l] = int32(rLo+int(w.rows[lo+l]))*int32(d), w.cols[lo+l]*int32(d)
		}
		dotPairs(&sims[0], &r.Data[0], &s.Data[0], &ri[0], &sj[0], d, cells)
		ran += int64(d)
		for l := range cells {
			if sim := sims[l]; sim == sim {
				visit(rLo+int(w.rows[lo+l]), int(w.cols[lo+l]), sim)
			}
		}
	}
	scratch = int8Bytes(bc, rows4, d) + int64(rows4)*int64(4*k+9) + int64(bc/32)*4 + int64(most+listSlack)*12
	return ran, scratch, nil
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

// seed raises the kth of the strip of rows n..n+3 (those of them live
// marks) before the sweep, from the per-tile largest lower estimates of
// the first k tiles of block 0, so that the sweep does not list nearly
// every cell of those tiles while kth is still -Inf. It returns how many
// columns those tiles cover: they are taken, and the sweep must not take
// them again.
func (w *topKWorker) seed(f *int8Filter, n int, live uint8, lanes int) int {
	all := [4]float32{float32(math.Inf(-1)), float32(math.Inf(-1)), float32(math.Inf(-1)), float32(math.Inf(-1))}
	seeded := min(lanes, w.k*2*panelCols)
	for c := 0; c < seeded; c += 2 * panelCols {
		admit := rowAdmit(live, w.admit[c/32])
		keep01, keep23 := f.tileEst(n, c, &all[0], &admit)
		w.take(f, n, keep01, keep23)
	}
	return seeded
}

// sweep runs the tile of the strip of rows n..n+3 (those of them live
// marks) and the two panels from column c of the S block, global column
// j0, against the rows' kth: it lists the cells whose upper estimate
// reaches its row's kth or is NaN and, unless seed has taken the tile
// (fresh is false), raises the kth.
func (w *topKWorker) sweep(f *int8Filter, n, c, j0 int, live uint8, fresh bool) {
	m := len(w.ups)
	ups, cols, rows := slices.Grow(w.ups, listSlack), slices.Grow(w.cols, listSlack), slices.Grow(w.rows, listSlack)
	admit := rowAdmit(live, w.admit[c/32])
	keep01, keep23, listed := f.tileList(n, c, &w.kth[n], &admit, &ups[:m+1][m], &cols[:m+1][m], &rows[:m+1][m], j0)
	w.ups, w.cols, w.rows = ups[:m+listed], cols[:m+listed], rows[:m+listed]
	if fresh {
		w.take(f, n, keep01, keep23)
	}
}

// take lets the largest lower estimate in f.est of each row of the strip
// from row n whose mask (keep01, keep23) is not 0 join the row's largest
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
