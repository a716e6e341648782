package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/vec"
)

// Embed is the embedding operator E_µ applied to a whole column: it maps
// every input through the model and returns the embeddings as matrix rows,
// normalized so that cosine similarity reduces to dot product downstream.
// This is the prefetch phase of the optimized join.
func Embed(ctx context.Context, m model.Model, inputs []string) (*mat.Matrix, error) {
	out := mat.New(len(inputs), m.Dim())
	for i, s := range inputs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: embed cancelled at row %d: %w", i, err)
		}
		e, err := m.Embed(s)
		if err != nil {
			return nil, fmt.Errorf("core: embedding row %d: %w", i, err)
		}
		if len(e) != m.Dim() {
			return nil, fmt.Errorf("core: model returned dim %d, declared %d", len(e), m.Dim())
		}
		vec.NormalizeInto(out.Row(i), e)
	}
	return out, nil
}

// NaiveNLJ is the direct extension of nested-loop join to context-enhanced
// predicates: for every (r, s) pair both tuples are pushed through the
// model and compared. Model cost is |R|·|S|·M — the suboptimal plan of
// Equation (E-NL Join Cost) that Figure 8 quantifies. It exists as the
// baseline; the tensor join is the served path.
func NaiveNLJ(ctx context.Context, m model.Model, left, right []string, threshold float32, opts Options) (*Result, error) {
	res := &Result{}
	start := time.Now()
	for i, ls := range left {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: naive nlj cancelled at row %d: %w", i, err)
		}
		if opts.LeftFilter != nil && !opts.LeftFilter.Get(i) {
			continue
		}
		for j, rs := range right {
			// Every pair costs two model calls, so a per-pair check is
			// negligible and lets cancellation interrupt a single left row.
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: naive nlj cancelled at pair (%d,%d): %w", i, j, err)
			}
			if opts.RightFilter != nil && !opts.RightFilter.Get(j) {
				continue
			}
			le, err := m.Embed(ls)
			if err != nil {
				return nil, fmt.Errorf("core: naive nlj embedding left %d: %w", i, err)
			}
			re, err := m.Embed(rs)
			if err != nil {
				return nil, fmt.Errorf("core: naive nlj embedding right %d: %w", j, err)
			}
			res.Stats.ModelCalls += 2
			res.Stats.Comparisons++
			if sim := vec.Cosine(opts.Kernel, le, re); sim >= threshold {
				res.Matches = append(res.Matches, Match{Left: i, Right: j, Sim: sim})
			}
		}
	}
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// NLJ is the logically optimized nested-loop join over prefetched,
// normalized embeddings: model cost is zero here (paid once in Embed), and
// the pairwise comparison loop is parallelized over left-row partitions.
// Rows of left and right must be unit-norm (Embed guarantees this).
func NLJ(ctx context.Context, left, right *mat.Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: nlj dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	start := time.Now()
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	nl := left.Rows()
	if threads > nl {
		threads = nl
	}
	if threads < 1 {
		threads = 1
	}

	parts := make([][]Match, threads)
	comparisons := make([]int64, threads)
	var wg sync.WaitGroup
	wg.Add(threads)
	chunk := (nl + threads - 1) / threads
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			lo, hi := w*chunk, (w+1)*chunk
			if hi > nl {
				hi = nl
			}
			var local []Match
			var cmp int64
			sinceCheck := 0
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				if opts.LeftFilter != nil && !opts.LeftFilter.Get(i) {
					continue
				}
				li := left.Row(i)
				for j := 0; j < right.Rows(); j++ {
					if sinceCheck++; sinceCheck >= cancelStride {
						sinceCheck = 0
						if ctx.Err() != nil {
							return
						}
					}
					if opts.RightFilter != nil && !opts.RightFilter.Get(j) {
						continue
					}
					cmp++
					if sim := vec.Dot(opts.Kernel, li, right.Row(j)); sim >= threshold {
						local = append(local, Match{Left: i, Right: j, Sim: sim})
					}
				}
			}
			parts[w] = local
			comparisons[w] = cmp
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: nlj cancelled: %w", err)
	}

	res := &Result{}
	for w := 0; w < threads; w++ {
		res.Matches = append(res.Matches, parts[w]...)
		res.Stats.Comparisons += comparisons[w]
	}
	sortMatches(res.Matches)
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}

// PrefetchNLJ runs the full logically optimized pipeline: embed both
// relations once ((|R|+|S|)·M model cost), then join with the parallel NLJ.
// This is the operator Figure 8 calls "Prefetch".
func PrefetchNLJ(ctx context.Context, m model.Model, left, right []string, threshold float32, opts Options) (*Result, error) {
	embedStart := time.Now()
	lm, err := Embed(ctx, m, left)
	if err != nil {
		return nil, err
	}
	rm, err := Embed(ctx, m, right)
	if err != nil {
		return nil, err
	}
	embedTime := time.Since(embedStart)

	res, err := NLJ(ctx, lm, rm, threshold, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.ModelCalls = int64(len(left) + len(right))
	res.Stats.EmbedTime = embedTime
	return res, nil
}
