package service

import (
	"sync/atomic"

	"ejoin/internal/embstore"
	"ejoin/internal/plan"
)

// counters holds the engine's pipeline-shape counters (the query
// lifecycle's own live in its Frontend): LIMIT-truncated queries, batches
// that flowed, and rows/matches early-out skipped.
type counters struct {
	truncated    atomic.Int64
	execBatches  atomic.Int64
	execEarlyOut atomic.Int64
}

// recordExecShape folds one execution's pipeline accounting into the
// counters and the per-operator latency histograms.
func (e *Engine) recordExecShape(res *plan.ExecResult) {
	c := &e.counters
	if res.Truncated {
		c.truncated.Add(1)
	}
	for _, op := range res.Ops {
		c.execBatches.Add(op.Batches)
		c.execEarlyOut.Add(op.EarlyOutRows)
		e.byOperator.With(op.Name).Observe(op.Elapsed)
	}
}

// ExecStats is the execution pipeline's observability surface.
type ExecStats struct {
	// TruncatedQueries counts streams a LIMIT short-circuited.
	TruncatedQueries int64 `json:"truncated_queries"`
	// Batches is the total batches emitted across all pipeline operators.
	Batches int64 `json:"batches"`
	// EarlyOutRows counts rows and matches skipped by early termination
	// (semantic-filter rejections, residual-threshold drops, LIMIT cuts).
	EarlyOutRows int64 `json:"early_out_rows"`
	// BlockRows is the configured probe-side block size (0 = default).
	BlockRows int `json:"block_rows"`
}

// ServerStats is the engine's aggregated observability surface: the query
// lifecycle's request, admission, and plan-cache counters with the
// cumulative executor work (QueryStats, flat in JSON), plus the shared
// store's statistics and every subsystem's own section.
type ServerStats struct {
	QueryStats
	// Store is the shared embedding store's statistics.
	Store embstore.Stats `json:"store"`
	// StoreModels counts cached entries per model fingerprint (the
	// export iterator PR 1 lacked made this unreportable).
	StoreModels map[string]int `json:"store_models,omitempty"`
	// Durable describes the persistence layer; nil for memory-only
	// engines.
	Durable *DurableStats `json:"durable,omitempty"`
	// Mutation describes the live-update arm: WAL, applied batches,
	// tombstones, replay, and compactions.
	Mutation *MutationStats `json:"mutation,omitempty"`
	// Exec describes the execution pipeline: LIMIT-truncated queries,
	// batch counts, and early-out savings.
	Exec ExecStats `json:"exec"`
	// Obs describes the tracing subsystem: traced queries, slow-log
	// retention, and latency-histogram sample counts.
	Obs ObsStats `json:"obs"`
	// Cost surfaces the planner's effective cost-model coefficients and
	// whether they came from machine calibration.
	Cost CostStats `json:"cost"`
}

// Stats snapshots the engine's statistics.
func (e *Engine) Stats() ServerStats {
	// Read first: see Frontend.record.
	obsStats := e.front.obsStats()
	return ServerStats{
		QueryStats:  e.front.QueryStats(),
		Store:       e.store.Stats(),
		StoreModels: e.store.ModelEntries(),
		Durable:     e.durableStats(),
		Mutation:    e.mutationStats(),
		Exec: ExecStats{
			TruncatedQueries: e.counters.truncated.Load(),
			Batches:          e.counters.execBatches.Load(),
			EarlyOutRows:     e.counters.execEarlyOut.Load(),
			BlockRows:        e.cfg.ExecBlockRows,
		},
		Obs:  obsStats,
		Cost: e.costStats(),
	}
}
