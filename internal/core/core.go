// Package core implements the paper's contribution: the physical operators
// of the context-enhanced relational join (E-join) and the embedding
// operator E_µ they compose with.
//
// Four join strategies are provided, in the order the paper derives them:
//
//   - NaiveNLJ: the straightforward extension of nested-loop join where the
//     model is invoked per compared pair — the |R|·|S|·(A+M+C) cost of
//     Equation (E-NL Join Cost). Exists to quantify what the logical
//     optimization buys; never use it for real work.
//   - NLJ over prefetched embeddings: the logically optimized form with
//     (|R|+|S|)·M model cost (Equation E-NLJ Prefetch Optimization),
//     parallel over R partitions, scalar or SIMD-style kernels.
//   - Tensor join: the holistic formulation — pairwise cosine similarity as
//     a cache-blocked D = R·Sᵀ (Figure 6) whose tiles are compared with the
//     threshold as they are computed, emitting late-materialized (rOffset,
//     sOffset) pairs; TensorJoinBatched is the mini-batch form of Figure 7.
//   - Index join: probes an HNSW index per R tuple (top-k or range) with
//     optional relational pre-filtering — the vector-database strategy of
//     Section VI-E.
//
// All strategies compute the same logical result for the same condition
// (index join approximately so), which the test suite checks by property.
// A served plan runs the tensor join or the index join; NaiveNLJ and NLJ
// are the paper's baselines, which internal/bench and cost.Calibrate time.
package core

import (
	"cmp"
	"slices"
	"time"

	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// Options tunes physical execution of the scan-based operators.
type Options struct {
	// Kernel selects scalar or SIMD-style compute kernels.
	Kernel vec.Kernel
	// Threads is the worker count; <=0 means GOMAXPROCS.
	Threads int
	// BudgetBytes bounds the block TensorJoinBatched materializes
	// (Section V-B); <=0 means unbatched. The fused scans store no block.
	BudgetBytes int64
	// BatchRows/BatchCols fix TensorJoinBatched's mini-batch shape (over
	// BudgetBytes when both are positive). The fused scans read BatchCols
	// alone, as the height of their cache-resident S block (<=0: 64).
	BatchRows int
	BatchCols int
	// LeftFilter/RightFilter restrict which rows participate, carrying
	// pushed-down relational predicates into the vector operator.
	LeftFilter  *relational.Bitmap
	RightFilter *relational.Bitmap
}

// Match is one qualifying pair with its similarity: the late-materialized
// result unit (tuple offsets + score), per Figure 6 step 2.
type Match struct {
	Left  int
	Right int
	Sim   float32
}

// Stats records what an operator actually did — the observable side of the
// cost model (model calls M, comparisons C, intermediate footprint).
type Stats struct {
	// ModelCalls is the number of Embed invocations attributable to the
	// operator (quadratic for NaiveNLJ, linear for prefetch).
	ModelCalls int64 `json:"model_calls"`
	// Comparisons is the number of vector pair comparisons.
	Comparisons int64 `json:"comparisons"`
	// Blocks is the number of S blocks a tensor scan walked.
	Blocks int `json:"blocks"`
	// KSteps is a tensor scan's inner-loop work had every tile run all d
	// steps (one step: one k of one left row against 16 right rows), and
	// KStepsSkipped how much of it the scan proved it could not need: the
	// pruned fraction. Comparisons counts pairs decided, not work spent.
	KSteps        int64 `json:"k_steps"`
	KStepsSkipped int64 `json:"k_steps_skipped"`
	// Int8Tiles is how many 4x32 int8 tiles a tensor scan's int8 filter
	// or a top-k's candidate sweep tested, and Int8RuledOut how many of
	// them it ruled out; Rescored is how many top-k candidate cells were
	// computed in F32 (mat.ScanStats).
	Int8Tiles    int64 `json:"int8_tiles"`
	Int8RuledOut int64 `json:"int8_ruled_out"`
	Rescored     int64 `json:"rescored"`
	// PeakIntermediateBytes is the working memory beyond the inputs and
	// their resident forms: a tensor scan's tile per worker and the forms
	// it derived for a matrix operand, or a top-k's bounds and candidate
	// lists besides (mat.ScanStats.ScratchBytes).
	PeakIntermediateBytes int64 `json:"peak_intermediate_bytes"`
	// EmbedTime is time spent in the model (prefetch phase).
	EmbedTime time.Duration `json:"embed_time_ns"`
	// JoinTime is time spent comparing/joining.
	JoinTime time.Duration `json:"join_time_ns"`
}

// Add folds another invocation's stats into s: counters and times sum,
// the peak intermediate is a high-water mark.
func (s *Stats) Add(o Stats) {
	s.ModelCalls += o.ModelCalls
	s.Comparisons += o.Comparisons
	s.Blocks += o.Blocks
	s.KSteps += o.KSteps
	s.KStepsSkipped += o.KStepsSkipped
	s.Int8Tiles += o.Int8Tiles
	s.Int8RuledOut += o.Int8RuledOut
	s.Rescored += o.Rescored
	s.PeakIntermediateBytes = max(s.PeakIntermediateBytes, o.PeakIntermediateBytes)
	s.EmbedTime += o.EmbedTime
	s.JoinTime += o.JoinTime
}

// Result is the output of a join operator.
type Result struct {
	Matches []Match
	Stats   Stats
}

// cancelStride is how many inner-loop comparisons a scan operator runs
// between context checks: frequent enough that cancellation and deadlines
// propagate mid-join even when one left row faces a huge right side, rare
// enough that the atomic load in ctx.Err() stays off the hot path.
const cancelStride = 4096

// sortMatches orders matches by (Left, Right) for deterministic output
// regardless of parallel execution order.
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.Left, b.Left), cmp.Compare(a.Right, b.Right))
	})
}

// groupByLeft returns the matches of parts, in order, ordered by (Left,
// Right), given that each Left is below n and that each Left's matches
// arrive in ascending Right — a fused scan's: a stable counting sort by
// Left into new storage, or the one part if it is in order already.
func groupByLeft(n int, parts ...[]Match) []Match {
	if len(parts) == 1 && slices.IsSortedFunc(parts[0], func(a, b Match) int { return cmp.Compare(a.Left, b.Left) }) {
		return parts[0]
	}
	at := make([]int, n+1) // at[i+1] counts Left i, then at[i] is where it starts
	total := 0
	for _, ms := range parts {
		for _, m := range ms {
			at[m.Left+1]++
		}
		total += len(ms)
	}
	if total == 0 {
		return nil
	}
	for i := 1; i <= n; i++ {
		at[i] += at[i-1]
	}
	out := make([]Match, total)
	for _, ms := range parts {
		for _, m := range ms {
			out[at[m.Left]] = m
			at[m.Left]++
		}
	}
	return out
}
