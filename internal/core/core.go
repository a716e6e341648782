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
	// PeakIntermediateBytes is the working memory beyond the inputs: a
	// tensor scan's scratch (a packed S block, its and the left rows'
	// suffix factors, and a tile per worker).
	PeakIntermediateBytes int64 `json:"peak_intermediate_bytes"`
	// EmbedTime is time spent in the model (prefetch phase).
	EmbedTime time.Duration `json:"embed_time_ns"`
	// JoinTime is time spent comparing/joining.
	JoinTime time.Duration `json:"join_time_ns"`
	// RerankTime is time spent in exact rescoring inside index probes
	// (IVF-PQ's rerank pass); zero for scan strategies and uncompressed
	// indexes. A subset of JoinTime.
	RerankTime time.Duration `json:"rerank_time_ns,omitempty"`
}

// Add folds another invocation's stats into s: counters and times sum,
// the peak intermediate is a high-water mark.
func (s *Stats) Add(o Stats) {
	s.ModelCalls += o.ModelCalls
	s.Comparisons += o.Comparisons
	s.Blocks += o.Blocks
	s.KSteps += o.KSteps
	s.KStepsSkipped += o.KStepsSkipped
	s.PeakIntermediateBytes = max(s.PeakIntermediateBytes, o.PeakIntermediateBytes)
	s.EmbedTime += o.EmbedTime
	s.JoinTime += o.JoinTime
	s.RerankTime += o.RerankTime
}

// Result is the output of a join operator.
type Result struct {
	Matches []Match
	Stats   Stats
}

// Pairs converts matches to relational pairs (dropping similarities), for
// composition with relational materialization.
func (r *Result) Pairs() []relational.Pair {
	out := make([]relational.Pair, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = relational.Pair{Left: m.Left, Right: m.Right}
	}
	return out
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
