package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

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

// IndexJoin joins every (unfiltered) left row against the HNSW index built
// over the right relation: the vector-database strategy the paper compares
// against in Section VI-E. It is IndexJoinWith specialized to HNSW.
func IndexJoin(ctx context.Context, left *mat.Matrix, index *hnsw.Index, cond IndexJoinCondition, opts Options) (*Result, error) {
	return IndexJoinWith(ctx, left, index, cond, opts)
}

// IndexJoinWith joins every (unfiltered) left row against any vector index
// (HNSW, IVF-Flat, ...) built over the right relation. Probes run in
// parallel (the paper batches search queries to implement the join). The
// right-side relational predicate is applied with the index's pre-filter
// semantics (HNSW: excluded from results but traversal still paid;
// IVF: skipped before the distance computation).
//
// Results are approximate (index recall), unlike the scan strategies.
func IndexJoinWith(ctx context.Context, left *mat.Matrix, index vindex.Index, cond IndexJoinCondition, opts Options) (*Result, error) {
	if left.Cols() != index.Dim() {
		return nil, fmt.Errorf("core: index join dimensionality mismatch: %d vs %d", left.Cols(), index.Dim())
	}
	if cond.K <= 0 {
		return nil, fmt.Errorf("core: index join requires top-k, got k=%d", cond.K)
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

	useRange := cond.MinSim > -1
	callsBefore := index.DistanceCalls()

	parts := make([][]Match, threads)
	errs := make([]error, threads)
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
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				if opts.LeftFilter != nil && !opts.LeftFilter.Get(i) {
					continue
				}
				hits, err := index.TopK(left.Row(i), cond.K, cond.Ef, opts.RightFilter)
				if err != nil {
					errs[w] = fmt.Errorf("core: index join probe %d: %w", i, err)
					return
				}
				for _, h := range hits {
					if useRange && h.Sim < cond.MinSim {
						continue
					}
					local = append(local, Match{Left: i, Right: h.ID, Sim: h.Sim})
				}
			}
			parts[w] = local
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: index join cancelled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{}
	for _, p := range parts {
		res.Matches = append(res.Matches, p...)
	}
	res.Stats.Comparisons = index.DistanceCalls() - callsBefore
	sortMatches(res.Matches)
	res.Stats.JoinTime = time.Since(start)
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
