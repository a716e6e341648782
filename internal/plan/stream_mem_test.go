package plan

import (
	"context"
	"runtime"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// TestStreamingPeakMemoryRegression is the executor's memory contract: a
// threshold join with a small LIMIT over a large probe side must allocate
// far fewer intermediate bytes than the same plan without the limit,
// because the pipeline embeds and probes only the blocks it takes to
// satisfy the limit, while the unlimited run walks the whole probe side.
//
// Setup: 2000 probe rows, build side = the first 32 probe strings (so
// identical strings guarantee similarity-1.0 matches inside the first
// block), block size 64, LIMIT 10. The limited run stops after ~1-2
// blocks (≈128 rows of intermediates); the unlimited run pays for all
// 2000. Embeddings come from a pre-warmed shared store, so the measured
// allocations are executor intermediates (gathered text slices, embedding
// matrices, match buffers), not model work.
func TestStreamingPeakMemoryRegression(t *testing.T) {
	const (
		probeRows = 2000
		buildRows = 32
		blockRows = 64
		limit     = 10
		dim       = 64
	)
	words := workload.Strings(5, probeRows, nil)
	left, err := relational.NewTable(
		relational.Schema{{Name: "word", Type: relational.String}},
		[]relational.Column{relational.StringColumn(words)},
	)
	if err != nil {
		t.Fatal(err)
	}
	right, err := relational.NewTable(
		relational.Schema{{Name: "term", Type: relational.String}},
		[]relational.Column{relational.StringColumn(words[:buildRows])},
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewHashEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Left:  TableRef{Name: "L", Table: lineage(left), TextColumn: "word"},
		Right: TableRef{Name: "R", Table: lineage(right), TextColumn: "term"},
		Model: m,
		Join:  JoinSpec{Kind: ThresholdJoin, Threshold: 0.5},
	}
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer()
	s := cost.StrategyTensor
	o.ForceStrategy = &s
	optimized, err := o.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}

	store := embstore.New(embstore.Config{Threads: 1})
	ex := &Executor{
		Options:   core.Options{Kernel: vec.DefaultKernel(), Threads: 1},
		Store:     store,
		BlockRows: blockRows,
	}
	ctx := context.Background()

	// Warm the shared store with every embedding both runs could need, so
	// neither measurement includes model-call or cache-fill allocations.
	if _, _, err := store.EmbedAll(ctx, m, words, embstore.BatchOptions{Threads: 1}); err != nil {
		t.Fatal(err)
	}

	measure := func(run func() error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	// One untimed run of each to settle any remaining lazy state.
	if _, err := ex.ExecuteStreaming(ctx, optimized, limit); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecuteStreaming(ctx, optimized, 0); err != nil {
		t.Fatal(err)
	}

	var limited, full *ExecResult
	allocLimited := measure(func() error {
		var err error
		limited, err = ex.ExecuteStreaming(ctx, optimized, limit)
		return err
	})
	allocFull := measure(func() error {
		var err error
		full, err = ex.ExecuteStreaming(ctx, optimized, 0)
		return err
	})

	if !limited.Truncated || len(limited.Matches) != limit {
		t.Fatalf("limited run returned %d matches (truncated=%v), want limit %d hit",
			len(limited.Matches), limited.Truncated, limit)
	}
	if len(full.Matches) <= limit {
		t.Fatalf("unlimited run found only %d matches; workload must overshoot the limit", len(full.Matches))
	}
	for i := 0; i < limit; i++ {
		if limited.Matches[i] != full.Matches[i] {
			t.Fatalf("match %d diverges: limited %+v, unlimited %+v", i, limited.Matches[i], full.Matches[i])
		}
	}
	checkOracle(t, q, optimized, full, f32Tol)
	t.Logf("intermediate allocations: LIMIT %d %d B, unlimited %d B (ratio %.1fx)",
		limit, allocLimited, allocFull, float64(allocFull)/float64(allocLimited))
	// Floor: >= 4x fewer intermediate bytes. The real ratio here is
	// ~probeRows/(2*blockRows) ≈ 15x; 4x leaves headroom for allocator
	// noise without letting a pipeline that stopped short-circuiting hide.
	if allocLimited*4 > allocFull {
		t.Errorf("LIMIT %d allocated %d B, unlimited %d B; want >= 4x reduction", limit, allocLimited, allocFull)
	}
}
