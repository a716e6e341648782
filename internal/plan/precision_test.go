package plan

import (
	"context"
	"testing"

	"ejoin/internal/quant"
)

// TestOptimizerPrecisionDefaultsExact: with no declared precision, plans
// carry no quantization — results stay bit-exact.
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

// TestOptimizerForcedPrecision: a declared precision sets a threshold
// scan's precision, and top-k joins ignore it (they rank by exact
// similarity).
func TestOptimizerForcedPrecision(t *testing.T) {
	q := testQuery(t)
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer()
	pl, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ApplyPrecisionKnob(pl, quant.PrecisionF16)
	if pl.Precision != quant.PrecisionF16 {
		t.Fatalf("forced precision not honored: %v", pl.Precision)
	}
	if _, err := (&Executor{Store: testStore()}).ExecuteStreaming(context.Background(), pl, 0); err != nil {
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
	ApplyPrecisionKnob(pl, quant.PrecisionF16)
	if pl.Precision != quant.PrecisionAuto {
		t.Fatalf("top-k plan carries precision %v", pl.Precision)
	}
}
