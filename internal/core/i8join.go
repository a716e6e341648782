package core

import (
	"context"
	"fmt"

	"ejoin/internal/quant"
)

// NLJI8 is the int8-quantized threshold join: inputs are stored as int8
// codes with per-vector scales (a quarter of the float32 footprint and
// traffic), compared with symmetric int8×int8 dots accumulated in int32
// and rescaled once per pair. This extends the half-precision direction
// (Section V-A2) one rung down the precision ladder: unit-norm embeddings
// lose at most quant.Int8DotErrorBound per comparison, so a threshold
// with that much margin keeps its meaning. It is a per-layer baseline:
// no served join calls it (every served threshold join runs TensorJoin).
//
// It runs on the same driver as NLJ and NLJF16 (nestedLoop): filters,
// thread partitioning over the left input, and stride-based ctx.Err()
// checks in the inner loop.
func NLJI8(ctx context.Context, left, right *quant.Int8Matrix, threshold float32, opts Options) (*Result, error) {
	if left.Cols() != right.Cols() {
		return nil, fmt.Errorf("core: int8 nlj dimensionality mismatch: %d vs %d", left.Cols(), right.Cols())
	}
	res, err := nestedLoop(ctx, "int8 nlj", left.Rows(), opts, func(w *loopWorker, i int) bool {
		li := left.Row(i)
		si := left.Scale(i)
		for j := 0; j < right.Rows(); j++ {
			if w.cancelled() {
				return false
			}
			if opts.RightFilter != nil && !opts.RightFilter.Get(j) {
				continue
			}
			w.cmp++
			if sim := quant.SimInt8(opts.Kernel, li, right.Row(j), si, right.Scale(j)); sim >= threshold {
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
