package plan

import (
	"context"
	"strings"
	"testing"

	"ejoin/internal/cost"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// TestOptimizerPrecisionDefaultsExact: with no slack, budget, or forced
// precision, plans carry no quantization — results stay bit-exact.
func TestOptimizerPrecisionDefaultsExact(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewOptimizer().Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionAuto && pl.Precision != quant.PrecisionF32 {
		t.Fatalf("default plan precision %v", pl.Precision)
	}
}

// TestOptimizerPrecisionSlackChoosesQuantized: opting into slack makes
// the planner pick a narrower rung for threshold scans, record its
// estimates, and the executor run it with agreement away from the
// boundary.
func TestOptimizerPrecisionSlackChoosesQuantized(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.PrecisionSlack = 0.05
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionInt8 {
		t.Fatalf("slack 0.05 chose %v (estimates %v)", pl.Precision, pl.PrecisionEstimates)
	}
	if len(pl.PrecisionEstimates) != 3 {
		t.Fatalf("precision estimates %v", pl.PrecisionEstimates)
	}
	if !strings.Contains(pl.Explain(), "precision=int8") {
		t.Fatalf("explain misses precision: %s", pl.Explain())
	}

	ctx := context.Background()
	exact, _, err := Run(ctx, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	quantized, err := (&Executor{}).ExecuteStreaming(ctx, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The test threshold (0.5) sits far from any pair's similarity
	// relative to the int8 bound, so match sets agree exactly here.
	if len(exact.Matches) != len(quantized.Matches) {
		t.Fatalf("exact %d matches, int8 %d", len(exact.Matches), len(quantized.Matches))
	}
	for i := range exact.Matches {
		if exact.Matches[i].Left != quantized.Matches[i].Left ||
			exact.Matches[i].Right != quantized.Matches[i].Right {
			t.Fatalf("match %d differs: %+v vs %+v", i, exact.Matches[i], quantized.Matches[i])
		}
	}
}

// TestOptimizerForcedPrecision: an explicit precision overrides the
// cost-based choice, and top-k joins ignore it (they rank by exact
// similarity).
func TestOptimizerForcedPrecision(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.Precision = quant.PrecisionF16
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionF16 {
		t.Fatalf("forced precision not honored: %v", pl.Precision)
	}
	if _, err := (&Executor{}).ExecuteStreaming(context.Background(), pl, 0); err != nil {
		t.Fatal(err)
	}

	q.Join = JoinSpec{Kind: TopKJoin, K: 2, Threshold: -2}
	naive, err = NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err = opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionAuto {
		t.Fatalf("top-k plan carries precision %v", pl.Precision)
	}
}

// TestOptimizerMemoryBudgetQuantizes: a tight memory budget alone (no
// slack) keeps F32 — accuracy gates before memory — while budget plus
// slack picks the rung that fits.
func TestOptimizerMemoryBudgetQuantizes(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.MemoryBudget = 64 // bytes: nothing fits
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionF32 {
		t.Fatalf("budget without slack chose %v", pl.Precision)
	}
	opt.PrecisionSlack = 0.05
	pl, err = opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionInt8 {
		t.Fatalf("budget with slack chose %v", pl.Precision)
	}
}

// TestExecutorDemotesInt8OnSparseData: the planner's int8 constant
// assumes dense embeddings; when the encoded scales of the actual data
// give an error bound above the promised slack (near-one-hot vectors),
// the executor falls back to the exact scan instead of silently
// drifting, and the plan reports what actually ran.
func TestExecutorDemotesInt8OnSparseData(t *testing.T) {
	dim, n := 100, 8
	rows := make([][]float32, n)
	for i := range rows {
		v := make([]float32, dim)
		v[i] = 1 // one-hot: maxabs = 1, exact bound ≈ √d/127 ≈ 0.079
		rows[i] = v
	}
	col, err := relational.NewVectorColumn(rows)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "emb", Type: relational.Vector}},
		[]relational.Column{col},
	)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Left:  TableRef{Name: "L", Table: tbl, VectorColumn: "emb"},
		Right: TableRef{Name: "R", Table: tbl, VectorColumn: "emb"},
		Join:  JoinSpec{Kind: ThresholdJoin, Threshold: 0.9},
	}
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	opt.PrecisionSlack = 0.05 // above int8's planning constant, below the one-hot bound
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionInt8 {
		t.Fatalf("planner chose %v; test needs an int8 plan", pl.Precision)
	}
	res, err := (&Executor{}).ExecuteStreaming(context.Background(), pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Precision != quant.PrecisionF32 {
		t.Fatalf("sparse data not demoted: plan still %v", pl.Precision)
	}
	// Exact self-join: exactly the n diagonal pairs.
	if len(res.Matches) != n {
		t.Fatalf("%d matches, want %d", len(res.Matches), n)
	}
}

func strategyPtr(s cost.Strategy) *cost.Strategy { return &s }
