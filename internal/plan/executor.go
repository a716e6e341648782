package plan

import (
	"context"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/exec"
	"ejoin/internal/obs"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// Executor runs logical plans by lowering them onto the internal/exec
// operator pipeline (see stream.go), whose probe operators call the
// physical kernels of package core.
type Executor struct {
	// Options tunes the physical operators (kernel, threads, memory budget).
	Options core.Options
	// IndexEf overrides probe beam width for index joins.
	IndexEf int
	// Store, when set, is the shared cross-query embedding store: Embed
	// nodes are evaluated through it, so repeated queries over the same
	// corpus reuse embeddings and concurrent queries share in-flight model
	// calls. Stats.ModelCalls then reports actual model work (misses), not
	// input cardinality.
	Store *embstore.Store
	// BlockRows is the probe-side block size; <=0 uses
	// exec.DefaultBlockSize. Results do not depend on it.
	BlockRows int
}

// ExecResult is the output of executing a join plan. Matches carry global
// row ids into the original (pre-filter) left and right tables, in the
// query's original orientation even if the optimizer swapped inputs.
type ExecResult struct {
	Matches  []core.Match
	Stats    core.Stats
	Strategy cost.Strategy
	// LeftRows/RightRows are the selections that survived relational
	// predicates (original orientation).
	LeftRows  relational.Selection
	RightRows relational.Selection
	// Analysis is the EXPLAIN ANALYZE tree (estimated vs observed
	// cardinality, per-node wall time), mirroring the executed plan. Built
	// only when the context carries an obs.Trace.
	Analysis *obs.NodeStats
	// Truncated reports the execution stopped early because its
	// LIMIT was satisfied: Matches holds exactly the first limit matches
	// and downstream consumers must treat observed cardinality as censored.
	Truncated bool
	// Ops are the probe pipeline's per-operator statistics, source to sink
	// (rows in/out, batches, early-out counts, self time).
	Ops []exec.OpStats
}

// joinDetail is the kernel accounting a join node shows under EXPLAIN
// ANALYZE: pairs decided and, for a tensor scan, S blocks walked and how
// many of its inner-loop steps it proved it could skip.
func joinDetail(st core.Stats) map[string]int64 {
	detail := map[string]int64{"comparisons": st.Comparisons}
	if st.Blocks > 0 {
		detail["blocks"] = int64(st.Blocks)
	}
	if st.KSteps > 0 {
		detail["k_steps"] = st.KSteps
		detail["k_skipped"] = st.KStepsSkipped
	}
	return detail
}

// strategyLabel is the span-vocabulary name for a scan strategy.
func strategyLabel(s cost.Strategy) string {
	switch s {
	case cost.StrategyNaiveNLJ:
		return "naive-nlj"
	case cost.StrategyNLJ:
		return "nlj"
	case cost.StrategyTensor:
		return "tensor"
	default:
		return s.String()
	}
}

func (ex *Executor) indexCond(j *EJoin) core.IndexJoinCondition {
	cond := core.IndexJoinCondition{K: j.Spec.K, MinSim: -2, Ef: ex.IndexEf}
	if j.Spec.Kind == ThresholdJoin {
		// Range condition emulated by widened top-k probes (Figure 17).
		cond.K = 32
		cond.MinSim = j.Spec.Threshold
	} else if j.Spec.Threshold > -1 {
		cond.MinSim = j.Spec.Threshold
	}
	return cond
}

// MaterializeResult builds the joined output table: left columns (l_),
// right columns (r_), and a similarity column, one row per match.
func MaterializeResult(q Query, res *ExecResult) (*relational.Table, error) {
	pairs := make([]relational.Pair, len(res.Matches))
	sims := make(relational.Float64Column, len(res.Matches))
	for i, m := range res.Matches {
		pairs[i] = relational.Pair{Left: m.Left, Right: m.Right}
		sims[i] = float64(m.Sim)
	}
	joined, err := relational.MaterializeJoin(q.Left.Table, q.Right.Table, pairs)
	if err != nil {
		return nil, err
	}
	return joined.WithColumn("similarity", sims)
}

// Run is the one-call path: build the naive plan, optimize, execute.
func Run(ctx context.Context, q Query, ex *Executor, opt *Optimizer) (*ExecResult, *EJoin, error) {
	naive, err := NewNaivePlan(q)
	if err != nil {
		return nil, nil, err
	}
	if opt == nil {
		opt = NewOptimizer()
	}
	optimized, err := opt.Optimize(naive)
	if err != nil {
		return nil, nil, err
	}
	if ex == nil {
		ex = &Executor{Options: core.Options{Kernel: vec.DefaultKernel()}}
	}
	res, err := ex.ExecuteStreaming(ctx, optimized, 0)
	if err != nil {
		return nil, nil, err
	}
	return res, optimized, nil
}
