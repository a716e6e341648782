package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ejoin/internal/mat"
	"ejoin/internal/vec"
)

// NLJF16 is the half-precision threshold join: inputs are stored in FP16
// (half the memory footprint and traffic of float32), compared with
// float32 accumulation. This implements the paper's half-precision
// processing direction (Section V-A2) as a storage/compute ablation:
// unit-norm embeddings lose ~1e-3 per element to quantization, so
// thresholds keep their meaning except for pairs within
// quant.PrecisionF16.DotErrorBound of the boundary.
func NLJF16(ctx context.Context, left, right *mat.F16Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: f16 nlj dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
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
					if sim := vec.DotF16(opts.Kernel, li, right.Row(j)); sim >= threshold {
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
		return nil, fmt.Errorf("core: f16 nlj cancelled: %w", err)
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
