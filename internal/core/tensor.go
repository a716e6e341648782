package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"ejoin/internal/mat"
	"ejoin/internal/relational"
)

// TensorJoin is the holistic optimization (Section IV-C, Figure 6): the
// pairwise cosine similarity of two unit-norm embedding matrices is the
// dot product D = L·Rᵀ, computed by the cache-blocked GEMM one register
// tile at a time. Each tile is compared with the threshold where it is
// computed and only entries >= threshold leave it, as late-materialized
// (left offset, right offset, similarity) matches in (Left, Right) order:
// no part of D is stored. Either side may be a matrix or column chunks
// with their resident forms (mat.Side).
func TensorJoin(ctx context.Context, left, right mat.Side, threshold float32, opts Options) (*Result, error) {
	start := time.Now()
	bound := make([]float32, left.Rows())
	for i := range bound {
		bound[i] = threshold
	}
	var parts []*[]Match // one per scan worker
	res, err := fusedScan(ctx, "tensor join", left, right, bound, opts, func() mat.ScanVisitor {
		part, _ := matchBufs.Get().(*[]Match)
		if part == nil {
			part = new([]Match)
		}
		parts = append(parts, part)
		return func(i, j int, sim float32) {
			if opts.RightFilter == nil || opts.RightFilter.Get(j) {
				*part = append(*part, Match{Left: i, Right: j, Sim: sim})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Each row's cells arrive in ascending Right, and workers own
	// ascending runs of rows: grouping by Left, stably, is the sort. The
	// workers' buffers go back for the next join unless the result is
	// one of them.
	ms := make([][]Match, len(parts))
	for w, part := range parts {
		ms[w] = *part
	}
	res.Matches = groupByLeft(left.Rows(), ms...)
	for _, part := range parts {
		if len(*part) == 0 || &(*part)[0] != &res.Matches[0] {
			*part = (*part)[:0]
			matchBufs.Put(part)
		}
	}
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// matchBufs recycles TensorJoin's per-worker match buffers.
var matchBufs sync.Pool // of *[]Match

// fusedScan runs mat.ScanAbove for one operator. Rows LeftFilter excludes
// get a NaN bound, which no similarity reaches and which lets the scan
// skip their tiles; RightFilter is for the visitors to test.
// Options.BatchCols, when set, is the S block height.
func fusedScan(ctx context.Context, op string, left, right mat.Side, bound []float32, opts Options, newVisitor func() mat.ScanVisitor) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: %s dimensionality mismatch: %d vs %d", op, left.Cols(), right.Cols())
	}
	if opts.LeftFilter != nil {
		for i := range bound {
			if !opts.LeftFilter.Get(i) {
				bound[i] = float32(math.NaN())
			}
		}
	}
	gemm := mat.GemmOptions{Threads: opts.Threads, Kernel: opts.Kernel, BlockCols: opts.BatchCols}
	st, err := mat.ScanAbove(ctx, left, right, bound, gemm, newVisitor)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", op, err)
	}
	return &Result{Stats: scanStats(left, right, st)}, nil
}

// scanStats is a tensor scan's account of st over its two sides.
func scanStats(left, right mat.Side, st mat.ScanStats) Stats {
	return Stats{
		Comparisons:           int64(left.Rows()) * int64(right.Rows()),
		Blocks:                st.Blocks,
		KSteps:                st.KSteps,
		KStepsSkipped:         st.KStepsSkipped,
		Int8Tiles:             st.Int8Tiles,
		Int8RuledOut:          st.Int8RuledOut,
		Rescored:              st.Rescored,
		PeakIntermediateBytes: st.ScratchBytes,
	}
}

// TensorJoinBatched is the materializing mini-batch form the paper
// measures (Section V-B, Figures 7, 12 and 13): D is computed block by
// block into one reused buffer, bounded by Options.BudgetBytes or fixed
// by BatchRows x BatchCols, and each stored block is then scanned for
// entries >= threshold. It exists to regenerate those figures (Figure
// 12's non-batched ablation is BatchRows = |L|, BatchCols = 1); TensorJoin
// returns the same matches without the buffer.
func TensorJoinBatched(ctx context.Context, left, right *mat.Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: tensor join dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	start := time.Now()
	res := &Result{}
	batch := mat.BatchOptions{
		Gemm:        mat.GemmOptions{Threads: opts.Threads, Kernel: opts.Kernel},
		BudgetBytes: opts.BudgetBytes,
		BatchRows:   opts.BatchRows,
		BatchCols:   opts.BatchCols,
	}
	res.Stats.PeakIntermediateBytes = mat.PeakBlockBytes(left.Rows(), right.Rows(), batch)

	err := mat.ForEachBlock(left, right, batch, func(block *mat.Matrix, rOff, sOff int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: tensor join cancelled at block (%d,%d): %w", rOff, sOff, err)
		}
		res.Stats.Blocks++
		res.Stats.Comparisons += int64(block.Rows()) * int64(block.Cols())
		for i := 0; i < block.Rows(); i++ {
			gi := rOff + i
			if opts.LeftFilter != nil && !opts.LeftFilter.Get(gi) {
				continue
			}
			for j, sim := range block.Row(i) {
				if sim >= threshold && (opts.RightFilter == nil || opts.RightFilter.Get(sOff+j)) {
					res.Matches = append(res.Matches, Match{Left: gi, Right: sOff + j, Sim: sim})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Row blocks arrive in order and, within one, each row's S blocks.
	res.Matches = groupByLeft(left.Rows(), res.Matches)
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// topKSeed is how many leading right rows TensorTopK's scan path
// computes in full first, to give every left row a bound from the start.
const topKSeed = 32

// TensorTopK returns, for every left row, its k most similar right rows
// (exactly, by exhaustive scan) — the scan-side equivalent of the index
// join's top-k probes used in Figures 15 and 16. Filters follow
// TensorJoin's semantics; a NaN similarity is never a candidate, and
// ties go to the lower right row. It ranks in one of two ways, both
// pushing each row's cells in ascending order with the GEMM contract's
// bits, so they answer alike, bit for bit:
//   - where mat.TopKCandidatesOn says so (hosts with AVX-512 VNNI,
//     shapes above the int8 filter's floors, k <= 8), one int8 pass
//     bounds each row's k-th best from below and only the cells that
//     can reach that bound are computed in F32 (mat package doc, "Top-k
//     by candidates");
//   - elsewhere, topKByScan: TensorJoin's scan with one bound per left
//     row, raised to the row's k-th best as candidates arrive.
func TensorTopK(ctx context.Context, left, right mat.Side, k int, opts Options) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: tensor top-k requires k > 0, got %d", k)
	}
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: tensor top-k dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: tensor top-k: %w", err)
	}
	start := time.Now()
	nr, ns := left.Rows(), right.Rows()
	k = min(k, ns)
	// Row i's candidates are heaps[i*k:][:fill[i]], best first. A scan
	// worker owns whole left rows, so rows need no lock.
	heaps := make([]Match, nr*k)
	fill := make([]int, nr)
	gemm := mat.GemmOptions{Threads: opts.Threads, Kernel: opts.Kernel, BlockCols: opts.BatchCols}
	var res *Result
	var err error
	if mat.TopKCandidatesOn(nr, ns, left.Cols(), k, gemm) {
		res, err = candidateTopK(ctx, left, right, k, opts, gemm, heaps, fill)
	} else {
		res, err = topKByScan(ctx, left, right, k, opts, heaps, fill)
	}
	if err != nil {
		return nil, err
	}
	res.Matches = topKMatches(heaps, fill, k)
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// topKMatches returns the candidates of TensorTopK's heaps and fill in
// (Left, Right) order, in heaps' storage: rows are already in Left
// order, so each is sorted by Right and the gaps short rows leave are
// closed.
func topKMatches(heaps []Match, fill []int, k int) []Match {
	out := heaps[:0]
	for i, n := range fill {
		row := heaps[i*k : i*k+n]
		slices.SortFunc(row, func(a, b Match) int { return cmp.Compare(a.Right, b.Right) })
		out = append(out, row...)
	}
	return out
}

// candidateTopK is TensorTopK's int8 path, filling heaps and fill as
// TensorTopK reads them: mat.TopKCandidates with a bound of -Inf for
// every left row, NaN for those LeftFilter excludes, as fusedScan gives
// them.
func candidateTopK(ctx context.Context, left, right mat.Side, k int, opts Options, gemm mat.GemmOptions, heaps []Match, fill []int) (*Result, error) {
	bound := make([]float32, left.Rows())
	for i := range bound {
		bound[i] = float32(math.Inf(-1))
		if opts.LeftFilter != nil && !opts.LeftFilter.Get(i) {
			bound[i] = float32(math.NaN())
		}
	}
	var keep func(int) bool
	if opts.RightFilter != nil {
		keep = opts.RightFilter.Get
	}
	push := func(i, j int, sim float32) {
		fill[i] = pushTopK(heaps[i*k:(i+1)*k], fill[i], Match{Left: i, Right: j, Sim: sim})
	}
	st, err := mat.TopKCandidates(ctx, left, right, k, bound, keep, gemm, func() mat.ScanVisitor { return push })
	if err != nil {
		return nil, fmt.Errorf("core: tensor top-k: %w", err)
	}
	return &Result{Stats: scanStats(left, right, st)}, nil
}

// topKByScan is TensorTopK's scan path, filling heaps and fill as
// TensorTopK reads them. Every cell that reaches its row's bound is
// pushed, and a row's bound is raised to its k-th best once it holds k,
// so later tiles of a long scan can be rejected in registers. The first
// right rows (topKSeed, or fewer if the first part of the right side is
// shorter) are scanned first, every cell kept (the same bits), and of
// each row's only those reaching its k-th best among them are pushed, in
// ascending order, so a row that holds k candidates after them starts
// the scan of the rest with its k-th best as its bound: any k real
// candidates bound the true k-th best from below, and the answer is the
// same.
func topKByScan(ctx context.Context, left, right mat.Side, k int, opts Options, heaps []Match, fill []int) (*Result, error) {
	nr := left.Rows()
	head, rest := mat.Split(right, topKSeed)
	seed := head.Rows()
	bound := make([]float32, nr)
	push := func(i, j int, sim float32) {
		if opts.RightFilter != nil && !opts.RightFilter.Get(j) {
			return
		}
		fill[i] = pushTopK(heaps[i*k:(i+1)*k], fill[i], Match{Left: i, Right: j, Sim: sim})
		if fill[i] == k {
			bound[i] = heaps[(i+1)*k-1].Sim
		}
	}
	// The seed's cells, NaN where none is visited (a NaN cell).
	sims := mat.New(nr, seed)
	for i := range sims.Data {
		sims.Data[i] = float32(math.NaN())
	}
	for i := range bound {
		bound[i] = float32(math.Inf(-1))
	}
	seeded, err := fusedScan(ctx, "tensor top-k", left, head, bound, opts, func() mat.ScanVisitor {
		return func(i, j int, sim float32) { sims.Data[i*seed+j] = sim }
	})
	if err != nil {
		return nil, err
	}
	for i := range nr {
		if bound[i] != bound[i] {
			continue // LeftFilter excludes the row
		}
		row := sims.Row(i)
		kth := seedBound(row, k, opts.RightFilter)
		for j, sim := range row {
			if sim >= kth {
				push(i, j, sim)
			}
		}
	}
	res, err := fusedScan(ctx, "tensor top-k", left, rest, bound, opts, func() mat.ScanVisitor {
		return func(i, j int, sim float32) { push(i, seed+j, sim) }
	})
	if err != nil {
		return nil, err
	}
	res.Stats.Add(seeded.Stats)
	res.Stats.Comparisons = int64(nr) * int64(right.Rows())
	res.Stats.PeakIntermediateBytes += sims.SizeBytes()
	return res, nil
}

// seedBound returns the k-th largest of the seed similarities in row
// that are not NaN and whose column keep keeps (nil keeps all), or -Inf
// if there are fewer than k: the least a row's k-th best can be, so
// pushing only the cells that reach it, in order, leaves the row's
// candidates as pushing all of them would.
func seedBound(row []float32, k int, keep *relational.Bitmap) float32 {
	if k >= len(row) {
		return float32(math.Inf(-1))
	}
	var top [topKSeed]float32 // the m largest so far, ascending
	m := 0
	for j, sim := range row {
		if sim != sim || keep != nil && !keep.Get(j) {
			continue
		}
		p := m
		if m == k {
			if sim <= top[0] {
				continue
			}
			for p = 0; p+1 < k && top[p+1] < sim; p++ {
				top[p] = top[p+1]
			}
		} else {
			for ; p > 0 && top[p-1] > sim; p-- {
				top[p] = top[p-1]
			}
			m++
		}
		top[p] = sim
	}
	if m < k {
		return float32(math.Inf(-1))
	}
	return top[0]
}

// pushTopK inserts m into h[:n], which is sorted by descending similarity
// and holds at most len(h), and returns the new n. A full h drops its
// last; ties keep the earlier arrival.
func pushTopK(h []Match, n int, m Match) int {
	if n == len(h) {
		if m.Sim <= h[n-1].Sim {
			return n
		}
		n--
	}
	pos := n
	for pos > 0 && h[pos-1].Sim < m.Sim {
		pos--
	}
	copy(h[pos+1:n+1], h[pos:n])
	h[pos] = m
	return n + 1
}
