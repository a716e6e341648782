package plan

import (
	"context"
	"fmt"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

func storeTestTable(t *testing.T, vals []string) *relational.Table {
	t.Helper()
	schema := relational.Schema{{Name: "text", Type: relational.String}}
	tbl, err := relational.NewTable(schema, []relational.Column{relational.StringColumn(vals)})
	if err != nil {
		t.Fatal(err)
	}
	return lineage(tbl)
}

// TestRepeatedQueryWarmStore is the acceptance check for the shared
// embedding store: the same Query.Run twice against one store — the warm
// run performs zero model calls and returns identical matches.
func TestRepeatedQueryWarmStore(t *testing.T) {
	inner, err := model.NewHashEmbedder(48)
	if err != nil {
		t.Fatal(err)
	}
	counting := model.NewCountingModel(inner)
	store := embstore.New(embstore.Config{})
	ex := &Executor{Options: core.Options{Kernel: vec.KernelSIMD}, Store: store}
	opt := NewOptimizer()
	opt.Store = store

	left := []string{"barbecue", "database", "giraffe", "window", "barbecue"}
	right := []string{"barbecues", "databases", "giraffes", "windows", "doors"}
	q := Query{
		Left:  TableRef{Name: "L", Table: storeTestTable(t, left), TextColumn: "text"},
		Right: TableRef{Name: "R", Table: storeTestTable(t, right), TextColumn: "text"},
		Model: counting,
		Join:  JoinSpec{Kind: ThresholdJoin, Threshold: 0.5},
	}
	ctx := context.Background()

	cold, _, err := Run(ctx, q, ex, opt)
	if err != nil {
		t.Fatal(err)
	}
	coldCalls := counting.Calls()
	if coldCalls == 0 {
		t.Fatal("cold run made no model calls")
	}
	// "barbecue" appears twice on the left: the batch dedup means distinct
	// inputs only.
	if distinct := int64(len(right) + len(left) - 1); coldCalls != distinct {
		t.Errorf("cold calls = %d, want %d distinct inputs", coldCalls, distinct)
	}
	if cold.Stats.ModelCalls != coldCalls {
		t.Errorf("stats report %d model calls, counter says %d", cold.Stats.ModelCalls, coldCalls)
	}

	counting.Reset()
	warm, _, err := Run(ctx, q, ex, opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls := counting.Calls(); calls != 0 {
		t.Errorf("warm run made %d model calls, want 0", calls)
	}
	if warm.Stats.ModelCalls != 0 {
		t.Errorf("warm stats report %d model calls", warm.Stats.ModelCalls)
	}
	if len(warm.Matches) != len(cold.Matches) {
		t.Fatalf("warm matches = %d, cold = %d", len(warm.Matches), len(cold.Matches))
	}
	for i := range warm.Matches {
		if warm.Matches[i] != cold.Matches[i] {
			t.Fatalf("match %d differs warm vs cold: %+v vs %+v", i, warm.Matches[i], cold.Matches[i])
		}
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Errorf("warm run recorded no hits: %+v", st)
	}
}

// TestOptimizerCacheAwareCosting verifies that a warm store discounts the
// E_µ term: with a model-dominated cost configuration, estimated strategy
// costs drop once the corpus is cached, and the warm estimate equals the
// cold estimate minus the full embedding term.
func TestOptimizerCacheAwareCosting(t *testing.T) {
	inner, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	store := embstore.New(embstore.Config{})
	n := 64
	vals := make([]string, n)
	for i := range vals {
		vals[i] = "item-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	q := Query{
		Left:  TableRef{Name: "L", Table: storeTestTable(t, vals), TextColumn: "text"},
		Right: TableRef{Name: "R", Table: storeTestTable(t, vals), TextColumn: "text"},
		Model: inner,
		Join:  JoinSpec{Kind: ThresholdJoin, Threshold: 0.8},
	}
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.Store = store

	coldPlan, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the store by running the query once: both columns are then
	// resident as chunks. Re-optimize.
	if _, _, err := Run(context.Background(), q, &Executor{Store: store}, opt); err != nil {
		t.Fatal(err)
	}
	warmPlan, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}

	coldTensor := coldPlan.Estimates[cost.StrategyTensor]
	warmTensor := warmPlan.Estimates[cost.StrategyTensor]
	if warmTensor >= coldTensor {
		t.Errorf("warm tensor estimate %v not below cold %v", warmTensor, coldTensor)
	}
	p := cost.DefaultParams()
	wantDiscount := p.EmbedCost(2*n, 0) // both sides fully cached
	if got := coldTensor - warmTensor; got != wantDiscount {
		t.Errorf("discount = %v, want full embedding term %v", got, wantDiscount)
	}
}

// TestExpectedHitRatioCountsSpilledChunks: a column whose chunks the store
// evicted to its spill file is read back without the model, so the
// optimizer still prices its E_µ as warm.
func TestExpectedHitRatioCountsSpilledChunks(t *testing.T) {
	const dim = 16
	m, err := model.NewHashEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 2*embstore.ChunkRows)
	for i := range texts {
		texts[i] = fmt.Sprintf("row %d", i)
	}
	tbl := storeTestTable(t, texts).WithIncarnation(42)
	store := embstore.New(embstore.Config{MaxBytes: embstore.ChunkRows * dim * 4 * 3 / 2})
	defer store.Close()
	o := NewOptimizer()
	o.Store = store
	node := &Embed{Input: &Scan{Ref: TableRef{Name: "t", Table: tbl, TextColumn: "text"}}, Column: "text", Model: m}
	if r := o.expectedHitRatio(node); r != 0 {
		t.Fatalf("cold column: resident share %v, want 0", r)
	}
	all := embstore.PrefixMask(embstore.ChunkRows)
	key := embstore.ChunkKey{Fingerprint: embstore.Fingerprint(m), Incarnation: 42, Column: "text"}
	for key.Index = 0; key.Index < 2; key.Index++ {
		lo := key.Index * embstore.ChunkRows
		if _, _, err := store.Chunk(context.Background(), m, key, texts[lo:lo+embstore.ChunkRows], all, all, embstore.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	key.Index = 0
	if _, ok := store.PeekChunk(key); ok {
		t.Fatal("chunk 0 still resident over a one-chunk budget")
	}
	if r := o.expectedHitRatio(node); r != 1 {
		t.Errorf("after eviction to the spill file: resident share %v, want 1", r)
	}
}
