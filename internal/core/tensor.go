package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"ejoin/internal/mat"
)

// TensorJoin is the holistic optimization (Section IV-C, Figure 6): the
// pairwise cosine similarity of two unit-norm embedding matrices is the
// dot product D = L·Rᵀ, computed by the cache-blocked GEMM one register
// tile at a time. Each tile is compared with the threshold where it is
// computed and only entries >= threshold leave it, as late-materialized
// (left offset, right offset, similarity) matches: no part of D is stored.
func TensorJoin(ctx context.Context, left, right *mat.Matrix, threshold float32, opts Options) (*Result, error) {
	start := time.Now()
	bound := make([]float32, left.Rows())
	for i := range bound {
		bound[i] = threshold
	}
	var parts []*[]Match // one per scan worker
	res, err := fusedScan(ctx, "tensor join", left, right, bound, opts, func() mat.ScanVisitor {
		part := new([]Match)
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
	for _, part := range parts {
		if res.Matches == nil {
			res.Matches = *part // the usual single worker: no copy
		} else {
			res.Matches = append(res.Matches, *part...)
		}
	}
	sortMatches(res.Matches)
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// fusedScan runs mat.ScanAbove for one operator. Rows LeftFilter excludes
// get a NaN bound, which no similarity reaches and which lets the scan
// skip their tiles; RightFilter is for the visitors to test.
// Options.BatchCols, when set, is the S block height.
func fusedScan(ctx context.Context, op string, left, right *mat.Matrix, bound []float32, opts Options, newVisitor func() mat.ScanVisitor) (*Result, error) {
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
	return &Result{Stats: Stats{
		Comparisons:           int64(left.Rows()) * int64(right.Rows()),
		Blocks:                st.Blocks,
		KSteps:                st.KSteps,
		KStepsSkipped:         st.KStepsSkipped,
		PeakIntermediateBytes: st.ScratchBytes,
	}}, nil
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
	sortMatches(res.Matches)
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// TensorTopK returns, for every left row, its k most similar right rows
// (exactly, by exhaustive scan) — the scan-side equivalent of the index
// join's top-k probes used in Figures 15 and 16. It is TensorJoin's scan
// with one bound per left row: everything qualifies until the row holds k
// candidates, then only what reaches its k-th best, so most tiles of a
// long scan are rejected in registers. Filters follow TensorJoin's
// semantics; a NaN similarity is never a candidate.
func TensorTopK(ctx context.Context, left, right *mat.Matrix, k int, opts Options) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: tensor top-k requires k > 0, got %d", k)
	}
	start := time.Now()
	nr := left.Rows()
	k = min(k, right.Rows())
	// Row i's candidates are heaps[i*k:][:fill[i]], best first. A scan
	// worker owns whole left rows, so rows need no lock.
	heaps := make([]Match, nr*k)
	fill := make([]int, nr)
	bound := make([]float32, nr)
	for i := range bound {
		bound[i] = float32(math.Inf(-1))
	}
	visit := func(i, j int, sim float32) {
		if opts.RightFilter != nil && !opts.RightFilter.Get(j) {
			return
		}
		fill[i] = pushTopK(heaps[i*k:(i+1)*k], fill[i], Match{Left: i, Right: j, Sim: sim})
		if fill[i] == k {
			bound[i] = heaps[(i+1)*k-1].Sim
		}
	}
	res, err := fusedScan(ctx, "tensor top-k", left, right, bound, opts, func() mat.ScanVisitor { return visit })
	if err != nil {
		return nil, err
	}
	// Rows are already in Left order: sort each by Right and close the
	// gaps short rows leave.
	res.Matches = heaps[:0]
	for i, n := range fill {
		row := heaps[i*k : i*k+n]
		sortMatches(row)
		res.Matches = append(res.Matches, row...)
	}
	res.Stats.JoinTime = time.Since(start)
	return res, nil
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
