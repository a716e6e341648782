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
	return nestedLoop(ctx, "nlj", left.Rows(), opts, func(w *loopWorker, i int) bool {
		li := left.Row(i)
		for j := 0; j < right.Rows(); j++ {
			if w.cancelled() {
				return false
			}
			if opts.RightFilter != nil && !opts.RightFilter.Get(j) {
				continue
			}
			w.cmp++
			if sim := vec.Dot(opts.Kernel, li, right.Row(j)); sim >= threshold {
				w.matches = append(w.matches, Match{Left: i, Right: j, Sim: sim})
			}
		}
		return true
	})
}

// loopWorker is one nested-loop worker's state: its matches and pair
// comparisons, its countdown to the next ctx check, and the error that
// stopped it.
type loopWorker struct {
	ctx        context.Context
	matches    []Match
	cmp        int64
	sinceCheck int
	err        error
	_          [64]byte // keeps workers' counters off each other's cache lines
}

// cancelled counts one inner-loop step and, every cancelStride steps,
// reports whether ctx has ended.
func (w *loopWorker) cancelled() bool {
	if w.sinceCheck++; w.sinceCheck >= cancelStride {
		w.sinceCheck = 0
		return w.ctx.Err() != nil
	}
	return false
}

// nestedLoop is the driver the nested-loop operators run on: it splits
// left rows [0, nl) over opts.Threads workers, polls ctx before each row,
// and calls row for every row opts.LeftFilter keeps; row returns false
// to stop its worker (ctx ended mid-row, or it set w.err). The result
// holds the matches ordered by (Left, Right) and the comparisons the rows
// counted. A cancelled ctx fails as "core: <op> cancelled", else the
// first worker's error fails the join.
func nestedLoop(ctx context.Context, op string, nl int, opts Options, row func(w *loopWorker, i int) bool) (*Result, error) {
	start := time.Now()
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	threads = max(min(threads, nl), 1)
	workers := make([]loopWorker, threads)
	var wg sync.WaitGroup
	wg.Add(threads)
	chunk := (nl + threads - 1) / threads
	for t := range workers {
		w := &workers[t]
		w.ctx = ctx
		go func() {
			defer wg.Done()
			for i := t * chunk; i < min((t+1)*chunk, nl); i++ {
				if ctx.Err() != nil {
					return
				}
				if opts.LeftFilter != nil && !opts.LeftFilter.Get(i) {
					continue
				}
				if !row(w, i) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s cancelled: %w", op, err)
	}
	res := &Result{}
	for _, w := range workers {
		if w.err != nil {
			return nil, w.err
		}
		res.Matches = append(res.Matches, w.matches...)
		res.Stats.Comparisons += w.cmp
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
