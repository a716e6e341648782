package plan

import (
	"ejoin/internal/cost"
	"ejoin/internal/exec"
)

// EstimateFootprint estimates the peak resident bytes executing j will
// pin: the prefetched embedding matrices of both (post-filter) inputs
// plus, for NLJ, one row of partial matches. (The tensor scan compares
// its tiles in registers and holds only a few tens of kilobytes of
// scratch.) dim is the embedding dimensionality (the model's, or the
// vector column's).
//
// This is the weight a serving layer charges against its admission
// budget before letting the query execute: it bounds aggregate memory
// pressure across concurrent queries using the same estimates the cost
// model plans with, not runtime measurements taken too late to help.
func EstimateFootprint(j *EJoin, dim int) int64 {
	if j == nil {
		return 0
	}
	lr, rr := estimateRows(j.Left), estimateRows(j.Right)
	if dim < 1 {
		dim = 1
	}
	bytes := int64(lr+rr) * int64(dim) * 4
	if j.Strategy == cost.StrategyNLJ {
		bytes += int64(rr) * 4
	}
	return bytes
}

// EstimateFootprintStreaming is the admission weight of a streamed plan:
// the resident build side plus one probe block, instead of both whole
// inputs. This is the fix for over-admission starvation — charging
// whole-intermediate bytes for a pipeline that never materializes them
// serialized queries that could have run concurrently under the same
// budget. blockRows <=0 uses exec.DefaultBlockSize. Non-streamable plans
// (naive) fall back to the materializing estimate, mirroring
// ExecuteStreaming's own fallback.
func EstimateFootprintStreaming(j *EJoin, dim int, blockRows int) int64 {
	if j == nil {
		return 0
	}
	if !Streamable(j) {
		return EstimateFootprint(j, dim)
	}
	if blockRows <= 0 {
		blockRows = exec.DefaultBlockSize
	}
	if dim < 1 {
		dim = 1
	}
	lr, rr := estimateRows(j.Left), estimateRows(j.Right)
	block := lr
	if block > blockRows {
		block = blockRows
	}
	bytes := int64(rr+block) * int64(dim) * 4
	if j.Strategy == cost.StrategyNLJ {
		bytes += int64(rr) * 4
	}
	return bytes
}
