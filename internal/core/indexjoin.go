package core

import (
	"context"
	"fmt"

	"ejoin/internal/hnsw"
	"ejoin/internal/mat"
	"ejoin/internal/vindex"
)

// IndexJoinCondition describes what an index probe retrieves per left tuple.
type IndexJoinCondition struct {
	// K is the number of most-similar right tuples to join with (top-k).
	// Mandatory for index probes (Table I's flexibility limitation).
	K int
	// MinSim, if > -1, additionally requires similarity >= MinSim — the
	// range condition of Figure 17, emulated index-side by widening top-k
	// probes.
	MinSim float32
	// Ef overrides the index's search beam width for these probes.
	Ef int
}

// IndexJoin joins every (unfiltered) left row against a vector index
// (HNSW, IVF-Flat, ...) built over the right relation: the vector-database
// strategy the paper compares against in Section VI-E. Probes run in
// parallel (the paper batches search queries to implement the join). The
// right-side relational predicate is applied with the index's pre-filter
// semantics (HNSW: excluded from results but traversal still paid;
// IVF: skipped before the distance computation).
//
// Results are approximate (index recall), unlike the scan strategies.
func IndexJoin(ctx context.Context, left *mat.Matrix, index vindex.Index, cond IndexJoinCondition, opts Options) (*Result, error) {
	if left.Cols() != index.Dim() {
		return nil, fmt.Errorf("core: index join dimensionality mismatch: %d vs %d", left.Cols(), index.Dim())
	}
	if cond.K <= 0 {
		return nil, fmt.Errorf("core: index join requires top-k, got k=%d", cond.K)
	}
	useRange := cond.MinSim > -1
	callsBefore := index.DistanceCalls()
	res, err := nestedLoop(ctx, "index join", left.Rows(), opts, func(w *loopWorker, i int) bool {
		hits, err := index.TopK(left.Row(i), cond.K, cond.Ef, opts.RightFilter)
		if err != nil {
			w.err = fmt.Errorf("core: index join probe %d: %w", i, err)
			return false
		}
		for _, h := range hits {
			if useRange && h.Sim < cond.MinSim {
				continue
			}
			w.matches = append(w.matches, Match{Left: i, Right: h.ID, Sim: h.Sim})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Stats.Comparisons = index.DistanceCalls() - callsBefore
	return res, nil
}

// BuildIndex constructs an HNSW index over the rows of right — the
// build-time cost of the index strategy (Table I's "Build & Compute &
// Probe" column).
func BuildIndex(right *mat.Matrix, cfg hnsw.Config) (*hnsw.Index, error) {
	idx, err := hnsw.New(right.Cols(), cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < right.Rows(); i++ {
		if _, err := idx.Insert(right.Row(i)); err != nil {
			return nil, fmt.Errorf("core: building index at row %d: %w", i, err)
		}
	}
	return idx, nil
}
