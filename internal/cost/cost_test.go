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

// TestNaiveVsPrefetch is the central claim of Section IV-A: the naive
// plan embeds once per compared pair (|R|·|S|·M, what core.NaiveNLJ
// pays), the prefetched plan the model prices once per tuple
// ((|R|+|S|)·M), so the gap grows with input size.
func TestNaiveVsPrefetch(t *testing.T) {
	p := DefaultParams()
	prevRatio := 0.0
	for _, n := range []int{100, 1000, 10000} {
		naive := float64(n) * float64(n) * p.Model
		pre := p.TensorJoin(n, n) - p.TensorJoinWarm(n, n, 1, 1)
		if want := p.EmbedCost(2*n, 0); pre != want {
			t.Fatalf("n=%d: prefetched model term %v, want (|R|+|S|)·M = %v", n, pre, want)
		}
		ratio := naive / pre
		if ratio <= prevRatio {
			t.Fatalf("n=%d: gap should grow with size: %v <= %v", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

// TestTensorCheaperThanNLJ: the tensor scan is the tuple-at-a-time NLJ
// with each comparison TensorSpeedup times cheaper, so the NLJ's price is
// the tensor price at speedup 1.
func TestTensorCheaperThanNLJ(t *testing.T) {
	p := DefaultParams()
	nlj := p
	nlj.TensorSpeedup = 1
	for _, n := range []int{100, 10000} {
		if p.TensorJoin(n, n) >= nlj.TensorJoin(n, n) {
			t.Errorf("n=%d: tensor not cheaper", n)
		}
	}
}

// TestChoicePricesScanAndProbeOnly: the planner's alternatives are the
// tensor scan and the index probe; NLJ is never priced, so never chosen.
func TestChoicePricesScanAndProbeOnly(t *testing.T) {
	p := DefaultParams()
	p.TensorSpeedup = 0.5 // an NLJ cheaper than the tensor scan
	for _, k := range []int{0, 1, 32} {
		c := p.ChooseJoinStrategyWarm(1000, 1000, 1, 1, k, false, 0, 0)
		if len(c.Estimates) != 2 || c.Estimates[StrategyTensor] == 0 || c.Estimates[StrategyIndex] == 0 {
			t.Errorf("k=%d: estimates %v, want tensor and index only", k, c.Estimates)
		}
		if c.Strategy != StrategyTensor && c.Strategy != StrategyIndex {
			t.Errorf("k=%d: chose %v", k, c.Strategy)
		}
	}
}

func TestIndexProbeSublinear(t *testing.T) {
	p := DefaultParams()
	probe1k := p.Iprobe(1000, 1)
	probe1m := p.Iprobe(1000000, 1)
	if probe1m >= probe1k*5 {
		t.Errorf("probe cost should grow logarithmically: %v vs %v", probe1k, probe1m)
	}
	if p.Iprobe(1, 1) != p.ProbeHop {
		t.Error("degenerate index probe")
	}
	// Larger k costs more.
	if p.Iprobe(10000, 32) <= p.Iprobe(10000, 1) {
		t.Error("probe cost should grow with k")
	}
	// Beam floor of 1 even with tiny k and width.
	small := Params{ProbeHop: 1, ProbeWidth: 0.001}
	if small.Iprobe(1000, 1) <= 0 {
		t.Error("beam floor violated")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyNLJ:    "NLJ",
		StrategyTensor: "TensorJoin",
		StrategyIndex:  "IndexJoin",
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

	low := p.ChooseJoinStrategyWarm(nr, ns, 0.05, 0.05, 1, true, 0, 0)
	if low.Strategy == StrategyIndex {
		t.Errorf("5%% selectivity should favor scan, got %v (est %v)", low.Strategy, low.Estimates)
	}
	high := p.ChooseJoinStrategyWarm(nr, ns, 1.0, 1.0, 1, true, 0, 0)
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
	topk := p.ChooseJoinStrategyWarm(nr, ns, 1, 1, 1, true, 0, 0)
	rng := p.ChooseJoinStrategyWarm(nr, ns, 1, 1, 0, true, 0, 0)
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
	k1 := p.ChooseJoinStrategyWarm(nr, ns, 0.5, 0.5, 1, true, 0, 0)
	k32 := p.ChooseJoinStrategyWarm(nr, ns, 0.5, 0.5, 32, true, 0, 0)
	if k32.Estimates[StrategyIndex] <= k1.Estimates[StrategyIndex] {
		t.Error("larger k should cost the index more")
	}
}

func TestMissingIndexAddsBuildCost(t *testing.T) {
	p := DefaultParams()
	with := p.ChooseJoinStrategyWarm(1000, 100000, 1, 1, 1, true, 0, 0)
	without := p.ChooseJoinStrategyWarm(1000, 100000, 1, 1, 1, false, 0, 0)
	if without.Estimates[StrategyIndex] <= with.Estimates[StrategyIndex] {
		t.Error("missing index should add build cost")
	}
}

func TestChooseHandlesDegenerateSelectivity(t *testing.T) {
	p := DefaultParams()
	// Out-of-range selectivities are clamped, not propagated.
	c := p.ChooseJoinStrategyWarm(100, 100, -1, 2, 1, true, 0, 0)
	if c.Estimates[StrategyTensor] < 0 {
		t.Error("negative cost")
	}
	zero := p.ChooseJoinStrategyWarm(0, 0, 0, 0, 1, true, 0, 0)
	if zero.Strategy != StrategyTensor && zero.Strategy != StrategyIndex {
		t.Error("degenerate inputs should still pick a real strategy")
	}
}

// TestCostMonotonicity: all join costs are non-decreasing in input size.
func TestCostMonotonicity(t *testing.T) {
	p := DefaultParams()
	prevT, prevI := 0.0, 0.0
	for _, n := range []int{10, 100, 1000, 10000} {
		ct := p.TensorJoin(n, n)
		ci := p.IndexJoin(n, n*10, 1)
		if ct <= prevT || ci <= prevI {
			t.Fatalf("n=%d: costs not increasing", n)
		}
		prevT, prevI = ct, ci
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
