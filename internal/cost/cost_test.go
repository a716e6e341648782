package cost

import (
	"testing"

	"ejoin/internal/model"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{Access: -1, TensorSpeedup: 1, ProbeWidth: 1},
		{TensorSpeedup: 0, ProbeWidth: 1},
		{TensorSpeedup: 1, ProbeWidth: 0},
		{TensorSpeedup: 1, ProbeWidth: 1, ProbeHop: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

// TestNaiveVsPrefetch is the central claim of Section IV-A: naive model
// cost is quadratic, prefetch linear, so the gap grows with input size.
func TestNaiveVsPrefetch(t *testing.T) {
	p := DefaultParams()
	sizes := []int{100, 1000, 10000}
	prevRatio := 0.0
	for _, n := range sizes {
		naive := p.NaiveENLJoin(n, n)
		pre := p.PrefetchENLJoin(n, n)
		if pre >= naive {
			t.Fatalf("n=%d: prefetch %v not cheaper than naive %v", n, pre, naive)
		}
		ratio := naive / pre
		if ratio <= prevRatio {
			t.Fatalf("n=%d: gap should grow with size: %v <= %v", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestTensorCheaperThanNLJ(t *testing.T) {
	p := DefaultParams()
	for _, n := range []int{100, 10000} {
		if p.TensorJoin(n, n) >= p.PrefetchENLJoin(n, n) {
			t.Errorf("n=%d: tensor not cheaper", n)
		}
	}
}

func TestIndexProbeSublinear(t *testing.T) {
	p := DefaultParams()
	probe1k := p.IndexProbe(1000, 1)
	probe1m := p.IndexProbe(1000000, 1)
	if probe1m >= probe1k*5 {
		t.Errorf("probe cost should grow logarithmically: %v vs %v", probe1k, probe1m)
	}
	if p.IndexProbe(1, 1) != p.ProbeHop {
		t.Error("degenerate index probe")
	}
	// Larger k costs more.
	if p.IndexProbe(10000, 32) <= p.IndexProbe(10000, 1) {
		t.Error("probe cost should grow with k")
	}
	// Beam floor of 1 even with tiny k and width.
	small := Params{ProbeHop: 1, ProbeWidth: 0.001}
	if small.IndexProbe(1000, 1) <= 0 {
		t.Error("beam floor violated")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyNaiveNLJ: "NaiveNLJ",
		StrategyNLJ:      "NLJ",
		StrategyTensor:   "TensorJoin",
		StrategyIndex:    "IndexJoin",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d = %q, want %q", s, s.String(), want)
		}
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy name")
	}
}

// TestAccessPathCrossover reproduces Figure 15's shape in the model: with
// top-1 conditions, low selectivity favors the scan (tensor), high
// selectivity favors the index.
func TestAccessPathCrossover(t *testing.T) {
	p := DefaultParams()
	nr, ns := 10000, 1000000

	low := p.ChooseJoinStrategy(nr, ns, 0.05, 0.05, 1, true)
	if low.Strategy == StrategyIndex {
		t.Errorf("5%% selectivity should favor scan, got %v (est %v)", low.Strategy, low.Estimates)
	}
	high := p.ChooseJoinStrategy(nr, ns, 1.0, 1.0, 1, true)
	if high.Strategy != StrategyIndex {
		t.Errorf("100%% selectivity top-1 should favor index, got %v (est %v)", high.Strategy, high.Estimates)
	}
}

// TestRangeConditionPenalizesIndex reproduces Figure 17's direction:
// threshold (range) conditions make the index strategy less attractive
// than the equivalent top-k condition.
func TestRangeConditionPenalizesIndex(t *testing.T) {
	p := DefaultParams()
	nr, ns := 10000, 1000000
	topk := p.ChooseJoinStrategy(nr, ns, 1, 1, 1, true)
	rng := p.ChooseJoinStrategy(nr, ns, 1, 1, 0, true)
	if rng.Estimates[StrategyIndex] <= topk.Estimates[StrategyIndex] {
		t.Errorf("range should cost the index more: %v vs %v",
			rng.Estimates[StrategyIndex], topk.Estimates[StrategyIndex])
	}
}

// TestLargerKPenalizesIndex reproduces Figure 16: top-32 shifts the
// crossover toward the scan.
func TestLargerKPenalizesIndex(t *testing.T) {
	p := DefaultParams()
	nr, ns := 10000, 1000000
	k1 := p.ChooseJoinStrategy(nr, ns, 0.5, 0.5, 1, true)
	k32 := p.ChooseJoinStrategy(nr, ns, 0.5, 0.5, 32, true)
	if k32.Estimates[StrategyIndex] <= k1.Estimates[StrategyIndex] {
		t.Error("larger k should cost the index more")
	}
}

func TestMissingIndexAddsBuildCost(t *testing.T) {
	p := DefaultParams()
	with := p.ChooseJoinStrategy(1000, 100000, 1, 1, 1, true)
	without := p.ChooseJoinStrategy(1000, 100000, 1, 1, 1, false)
	if without.Estimates[StrategyIndex] <= with.Estimates[StrategyIndex] {
		t.Error("missing index should add build cost")
	}
}

func TestChooseHandlesDegenerateSelectivity(t *testing.T) {
	p := DefaultParams()
	// Out-of-range selectivities are clamped, not propagated.
	c := p.ChooseJoinStrategy(100, 100, -1, 2, 1, true)
	if c.Estimates[StrategyTensor] < 0 {
		t.Error("negative cost")
	}
	zero := p.ChooseJoinStrategy(0, 0, 0, 0, 1, true)
	if zero.Strategy == StrategyNaiveNLJ {
		t.Error("degenerate inputs should still pick a real strategy")
	}
}

// TestCostMonotonicity: all join costs are non-decreasing in input size.
func TestCostMonotonicity(t *testing.T) {
	p := DefaultParams()
	prevN, prevP, prevT, prevI := 0.0, 0.0, 0.0, 0.0
	for _, n := range []int{10, 100, 1000, 10000} {
		cn := p.NaiveENLJoin(n, n)
		cp := p.PrefetchENLJoin(n, n)
		ct := p.TensorJoin(n, n)
		ci := p.IndexJoin(n, n*10, 1)
		if cn <= prevN || cp <= prevP || ct <= prevT || ci <= prevI {
			t.Fatalf("n=%d: costs not increasing", n)
		}
		prevN, prevP, prevT, prevI = cn, cp, ct, ci
	}
}

func TestCalibrate(t *testing.T) {
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Calibrate(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Access != 1 {
		t.Errorf("Access should be the unit: %v", p.Access)
	}
	if p.Model <= 0 || p.Compare <= 0 {
		t.Errorf("non-positive calibrated costs: %+v", p)
	}
	if p.TensorSpeedup == DefaultParams().TensorSpeedup {
		t.Errorf("TensorSpeedup was inherited, not measured: %+v", p)
	}
	// A real embedding model costs far more than one dot product.
	if p.Model < p.Compare {
		t.Errorf("expected model >= compare: %+v", p)
	}
}

func TestCalibrateFailingModel(t *testing.T) {
	inner, _ := model.NewHashEmbedder(8)
	bad := &model.FailingModel{Inner: inner, Match: func(string) bool { return true }, Err: errSentinel}
	if _, err := Calibrate(bad, 8); err == nil {
		t.Error("expected calibration error")
	}
}

type sentinelErr string

func (e sentinelErr) Error() string { return string(e) }

var errSentinel = sentinelErr("calibration failure")

func TestWarmCostsDiscountModelTerm(t *testing.T) {
	p := DefaultParams()
	nr, ns := 1000, 1000

	if got, want := p.PrefetchENLJoinWarm(nr, ns, 0, 0), p.PrefetchENLJoin(nr, ns); got != want {
		t.Errorf("cold warm-variant %v != legacy %v", got, want)
	}
	if got, want := p.TensorJoinWarm(nr, ns, 0, 0), p.TensorJoin(nr, ns); got != want {
		t.Errorf("cold tensor warm-variant %v != legacy %v", got, want)
	}
	if got, want := p.IndexJoinWarm(nr, ns, 4, 0), p.IndexJoin(nr, ns, 4); got != want {
		t.Errorf("cold index warm-variant %v != legacy %v", got, want)
	}

	// A fully warm cache removes exactly the embedding term.
	cold := p.TensorJoin(nr, ns)
	warm := p.TensorJoinWarm(nr, ns, 1, 1)
	if diff := cold - warm; diff != p.EmbedCost(nr+ns, 0) {
		t.Errorf("discount = %v, want %v", diff, p.EmbedCost(nr+ns, 0))
	}
	// Hit ratios outside [0,1] clamp instead of going negative.
	if p.EmbedCost(100, 2) != 0 || p.EmbedCost(100, -1) != p.EmbedCost(100, 0) {
		t.Error("hit ratio not clamped")
	}
}

func TestChooseJoinStrategyWarmCanFlip(t *testing.T) {
	p := DefaultParams()
	// A regime where probes win cold because scans pay the model per run:
	// small surviving R against a large indexed S, small k.
	nr, ns, k := 2000, 2_000_000, 1
	selL := 0.02
	cold := p.ChooseJoinStrategyWarm(nr, ns, selL, 1, k, true, 0, 0)
	if cold.Strategy != StrategyIndex {
		t.Skipf("cold regime did not pick index (%v); parameters shifted", cold.Strategy)
	}
	warm := p.ChooseJoinStrategyWarm(nr, ns, selL, 1, k, true, 1, 1)
	if warm.Estimates[StrategyTensor] >= cold.Estimates[StrategyTensor] {
		t.Errorf("warm tensor estimate did not drop: %v vs %v",
			warm.Estimates[StrategyTensor], cold.Estimates[StrategyTensor])
	}
	if warm.Estimates[StrategyIndex] > cold.Estimates[StrategyIndex] {
		t.Errorf("warm index estimate rose: %v vs %v",
			warm.Estimates[StrategyIndex], cold.Estimates[StrategyIndex])
	}
}
