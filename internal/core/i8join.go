package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ejoin/internal/quant"
)

// NLJI8 is the int8-quantized threshold join: inputs are stored as int8
// codes with per-vector scales (a quarter of the float32 footprint and
// traffic), compared with symmetric int8×int8 dots accumulated in int32
// and rescaled once per pair. This extends the half-precision direction
// (Section V-A2) one rung down the precision ladder: unit-norm embeddings
// lose at most quant.Int8DotErrorBound per comparison, so a threshold
// with that much margin keeps its meaning — which is exactly the margin
// a table accepts when it declares int8.
//
// The contract matches NLJF16: filters, thread partitioning over the left
// input, and stride-based ctx.Err() checks in the inner loop.
func NLJI8(ctx context.Context, left, right *quant.Int8Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: int8 nlj dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
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
				si := left.Scale(i)
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
					if sim := quant.SimInt8(opts.Kernel, li, right.Row(j), si, right.Scale(j)); sim >= threshold {
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
		return nil, fmt.Errorf("core: int8 nlj cancelled: %w", err)
	}

	res := &Result{}
	for w := 0; w < threads; w++ {
		res.Matches = append(res.Matches, parts[w]...)
		res.Stats.Comparisons += comparisons[w]
	}
	res.Stats.PeakIntermediateBytes = left.SizeBytes() + right.SizeBytes()
	sortMatches(res.Matches)
	res.Stats.JoinTime = time.Since(start)
	return res, nil
}
