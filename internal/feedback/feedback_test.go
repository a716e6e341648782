package feedback

import (
	"math"
	"testing"
)

func TestEstimatorWarmupThenEWMA(t *testing.T) {
	var e Estimator
	if e.Mean() != 0 || e.Count() != 0 {
		t.Fatalf("zero estimator = (%v, %d), want (0, 0)", e.Mean(), e.Count())
	}
	// The first 1/alpha observations behave as a plain running mean.
	e.Observe(1)
	e.Observe(2)
	e.Observe(3)
	if got := e.Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("warmup mean = %v, want 2 (running mean)", got)
	}
	// Past warmup the weight of one observation is fixed at alpha, so the
	// mean moves by alpha*(v-mean) — not by 1/count.
	for i := 0; i < 10; i++ {
		e.Observe(2)
	}
	before := e.Mean()
	e.Observe(before + 10)
	if got := e.Mean() - before; math.Abs(got-0.2*10) > 1e-9 {
		t.Fatalf("EWMA step = %v, want %v", got, 0.2*10)
	}
}

func TestEstimatorIgnoresNonFinite(t *testing.T) {
	var e Estimator
	e.Observe(math.NaN())
	e.Observe(math.Inf(1))
	e.Observe(math.Inf(-1))
	if e.Count() != 0 || e.Mean() != 0 {
		t.Fatalf("non-finite values counted: (%v, %d)", e.Mean(), e.Count())
	}
	e.Observe(5)
	if e.Count() != 1 || e.Mean() != 5 {
		t.Fatalf("estimator broken after non-finite inputs: (%v, %d)", e.Mean(), e.Count())
	}
}

func TestFloatHistBucketPlacement(t *testing.T) {
	h := NewFloatHist(1, 2, 4)
	cases := []struct {
		v    float64
		want int
	}{
		{0.5, 0},
		{1, 0}, // le semantics: exactly on a bound stays in that bucket
		{1.5, 1},
		{2, 1},
		{3, 2},
		{4, 2},
		{100, 3}, // past the last bound: implicit +Inf bucket
	}
	for _, c := range cases {
		h := NewFloatHist(1, 2, 4)
		h.Observe(c.v)
		_, counts, _, _ := h.Snapshot()
		if counts[c.want] != 1 {
			t.Fatalf("Observe(%v) landed in %v, want bucket %d", c.v, counts, c.want)
		}
	}

	h.Observe(0.5)
	h.Observe(3)
	h.Observe(math.NaN()) // dropped
	bounds, counts, sum, total := h.Snapshot()
	if len(counts) != len(bounds)+1 {
		t.Fatalf("counts len %d, want bounds+1 = %d", len(counts), len(bounds)+1)
	}
	if total != 2 || sum != 3.5 {
		t.Fatalf("total=%d sum=%v, want 2, 3.5", total, sum)
	}
}

func TestQError(t *testing.T) {
	cases := []struct {
		est, obs int64
		want     float64
	}{
		{100, 100, 1},
		{100, 25, 4},
		{25, 100, 4}, // symmetric
		{0, 10, 10},  // est floored at 1
		{10, 0, 10},  // obs floored at 1
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := QError(c.est, c.obs); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("QError(%d, %d) = %v, want %v", c.est, c.obs, got, c.want)
		}
	}
}

func TestRowsFactorNeutralAndLearned(t *testing.T) {
	var nilReg *Registry
	if f := nilReg.RowsFactor("a", "b"); f != 1 || NewRegistry().RowsFactor("x", "y") != 1 {
		t.Fatalf("nil registry rows factor = %v, want neutral 1", f)
	}

	r := NewRegistry()
	// Observed output is 4x the static estimate.
	r.RecordJoin("L", "R", 100, 100, 400)
	if f := r.RowsFactor("l", "r"); math.Abs(f-4) > 1e-9 { // names canonicalize: mixed case shares state
		t.Fatalf("rows factor = %v, want 4", f)
	}
	// The pair is directional: the reverse join has no feedback yet.
	if f := r.RowsFactor("r", "l"); f != 1 {
		t.Fatalf("reverse pair rows factor = %v, want neutral 1", f)
	}
}

func TestRowsFactorClamped(t *testing.T) {
	r := NewRegistry()
	// A wildly wrong estimate must be clamped, not applied verbatim, in
	// either direction.
	r.RecordJoin("a", "b", 1, 1, 1_000_000)
	if f := r.RowsFactor("a", "b"); f != 64 {
		t.Fatalf("rows factor %v, want it clamped to 64", f)
	}
	r.RecordJoin("c", "d", 1_000_000, 1, 0)
	if f := r.RowsFactor("c", "d"); f != 1.0/64 {
		t.Fatalf("rows factor %v, want it clamped to 1/64", f)
	}
}

func TestQErrorHistogramsRecorded(t *testing.T) {
	r := NewRegistry()
	r.RecordJoin("a", "b", 400, 110, 100)
	_, _, _, staticTotal := r.QErrStaticHist.Snapshot()
	_, _, _, corrTotal := r.QErrHist.Snapshot()
	if staticTotal != 1 || corrTotal != 1 {
		t.Fatalf("q-error histograms totals = (%d, %d), want (1, 1)", staticTotal, corrTotal)
	}
	d := r.Dump()
	j, ok := d.Joins["a⋈b"]
	if !ok {
		t.Fatalf("join pair missing from dump: %+v", d.Joins)
	}
	if j.QErrStatic != 4 || j.QErrCorrected != 1.1 {
		t.Fatalf("q-errors = (%v, %v), want (4, 1.1)", j.QErrStatic, j.QErrCorrected)
	}
}

func TestDropForgetsTableAndJoins(t *testing.T) {
	r := NewRegistry()
	r.RecordJoin("a", "b", 10, 10, 20)
	r.RecordJoin("b", "c", 10, 10, 20)
	r.Drop("A")
	d := r.Dump()
	if _, ok := d.Joins["a⋈b"]; ok {
		t.Fatal("dropped table's join pair survived")
	}
	if _, ok := d.Joins["b⋈c"]; !ok {
		t.Fatal("unrelated join pair was dropped")
	}
	if f := r.RowsFactor("a", "b"); f != 1 {
		t.Fatalf("rows factor survives a drop: %v", f)
	}
}

func TestDumpShape(t *testing.T) {
	r := NewRegistry()
	r.RecordJoin("x", "y", 10, 10, 20)
	d := r.Dump()
	if len(d.Joins) != 1 {
		t.Fatalf("dump has %d join pairs, want 1: %+v", len(d.Joins), d)
	}
	j := d.Joins["x⋈y"]
	if j.Samples != 1 || j.RowsFactor != 2 {
		t.Fatalf("join dump wrong: %+v", j)
	}
}
