package plan

import "ejoin/internal/exec"

// EstimateFootprint estimates the peak resident bytes executing j will
// pin: the build (post-filter right) side's embedding matrix plus one
// probe block. (The tensor scan compares its tiles in registers and holds
// only a few tens of kilobytes of scratch.) dim is the model's embedding
// dimensionality; blockRows <=0 uses exec.DefaultBlockSize.
//
// This is the weight a serving layer charges against its admission
// budget before letting the query execute: it bounds aggregate memory
// pressure across concurrent queries using the same estimates the cost
// model plans with, not runtime measurements taken too late to help.
// Charging the whole probe side, which the pipeline never holds, would
// serialize queries that can run concurrently under the same budget.
func EstimateFootprint(j *EJoin, dim int, blockRows int) int64 {
	if j == nil {
		return 0
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
	return int64(rr+block) * int64(dim) * 4
}
