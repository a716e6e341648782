package core

import (
	"context"
	"fmt"

	"ejoin/internal/mat"
	"ejoin/internal/vec"
)

// NLJF16 is the half-precision threshold join: inputs are stored in FP16
// (half the memory footprint and traffic of float32), compared with
// float32 accumulation. This implements the paper's half-precision
// processing direction (Section V-A2) as a storage/compute ablation:
// unit-norm embeddings lose ~1e-3 per element to quantization, so
// thresholds keep their meaning except for pairs within
// quant.PrecisionF16.DotErrorBound of the boundary. It is a per-layer
// baseline and the FP16 ablation's kernel: no served join calls it.
func NLJF16(ctx context.Context, left, right *mat.F16Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: f16 nlj dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	res, err := nestedLoop(ctx, "f16 nlj", left.Rows(), opts, func(w *loopWorker, i int) bool {
		li := left.Row(i)
		for j := 0; j < right.Rows(); j++ {
			if w.cancelled() {
				return false
			}
			if opts.RightFilter != nil && !opts.RightFilter.Get(j) {
				continue
			}
			w.cmp++
			if sim := vec.DotF16(opts.Kernel, li, right.Row(j)); sim >= threshold {
				w.matches = append(w.matches, Match{Left: i, Right: j, Sim: sim})
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Stats.PeakIntermediateBytes = left.SizeBytes() + right.SizeBytes()
	return res, nil
}
