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

func TestSampleAuditDeterministic(t *testing.T) {
	r := NewRegistry(0.95)
	if r.SampleAudit("t", 0) {
		t.Fatal("fraction 0 must never sample")
	}
	// fraction 0.25 fires exactly every 4th call.
	var fired []int
	for i := 1; i <= 12; i++ {
		if r.SampleAudit("t", 0.25) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 4 || fired[1] != 8 || fired[2] != 12 {
		t.Fatalf("fraction 0.25 fired at %v, want [4 8 12]", fired)
	}
	// fraction >= 1 fires every call (and >1 clamps).
	for i := 0; i < 5; i++ {
		if !r.SampleAudit("u", 2) {
			t.Fatalf("fraction >1 should clamp to 1 and always fire (call %d)", i)
		}
	}
	// Accumulators are per table.
	if r.SampleAudit("v", 0.5) {
		t.Fatal("fresh table's first 0.5 sample should not fire")
	}
}

func TestRowsFactorNeutralAndLearned(t *testing.T) {
	var nilReg *Registry
	if f := nilReg.RowsFactor("a", "b"); f != 1 || NewRegistry(0.95).RowsFactor("x", "y") != 1 {
		t.Fatalf("nil registry rows factor = %v, want neutral 1", f)
	}

	r := NewRegistry(0.95)
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
	r := NewRegistry(0.95)
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
	r := NewRegistry(0.95)
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

func TestTunerMovesUpOnMissedSLO(t *testing.T) {
	r := NewRegistry(0.95)
	r.SetCurrent("t", "ivf", "nprobe", 4)

	// One audit is not enough evidence.
	r.RecordAudit("t", "ivf", 4, 0.5)
	if _, _, ok := r.NextKnob("t"); ok {
		t.Fatal("tuner moved on a single audit sample")
	}
	r.RecordAudit("t", "ivf", 4, 0.5)
	next, reason, ok := r.NextKnob("t")
	if !ok || next != 6 { // 4 + max(1, 4/2)
		t.Fatalf("NextKnob = (%d, %q, %v), want (6, _, true)", next, reason, ok)
	}
	if moved := r.KnobApplied("t", 6); !moved {
		t.Fatal("KnobApplied(6) should report a move")
	}
	// Evidence resets after a move: no immediate second proposal.
	if _, _, ok := r.NextKnob("t"); ok {
		t.Fatal("tuner moved again without fresh audits")
	}
	audits, moves, _ := r.Counters()
	if audits != 2 || moves != 1 {
		t.Fatalf("counters = (%d, %d), want (2, 1)", audits, moves)
	}
}

func TestTunerHysteresisAndFailedFloor(t *testing.T) {
	r := NewRegistry(0.90)
	r.SetCurrent("t", "ivf", "nprobe", 8)

	// Recall inside [SLO, SLO+margin): hold, don't oscillate.
	r.RecordAudit("t", "ivf", 8, 0.91)
	r.RecordAudit("t", "ivf", 8, 0.91)
	if _, _, ok := r.NextKnob("t"); ok {
		t.Fatal("tuner moved inside the hysteresis band")
	}

	// Fail at 8: floor is set and the knob goes up.
	r.RecordAudit("t", "ivf", 8, 0.2)
	r.RecordAudit("t", "ivf", 8, 0.2)
	r.RecordAudit("t", "ivf", 8, 0.2)
	next, _, ok := r.NextKnob("t")
	if !ok || next != 12 {
		t.Fatalf("NextKnob after failures = (%d, %v), want (12, true)", next, ok)
	}
	r.KnobApplied("t", 12)

	// Clears the SLO comfortably at 12: a down move is proposed, but it
	// must stay above the failed floor of 8. down = 12 - max(1,12/4) = 9.
	r.RecordAudit("t", "ivf", 12, 1)
	r.RecordAudit("t", "ivf", 12, 1)
	next, _, ok = r.NextKnob("t")
	if !ok || next != 9 {
		t.Fatalf("down move = (%d, %v), want (9, true)", next, ok)
	}
	if next <= 8 {
		t.Fatalf("down move %d crossed the failed floor 8", next)
	}
	r.KnobApplied("t", 9)

	// At 9 the down step (9-2=7) would land at or below the floor: hold.
	r.RecordAudit("t", "ivf", 9, 1)
	r.RecordAudit("t", "ivf", 9, 1)
	if next, _, ok := r.NextKnob("t"); ok {
		t.Fatalf("proposed %d below/at failed floor", next)
	}
}

func TestTunerIgnoresUnknownOrUnindexed(t *testing.T) {
	r := NewRegistry(0.95)
	if _, _, ok := r.NextKnob("nosuch"); ok {
		t.Fatal("tuner acted on an unknown table")
	}
	r.RecordAudit("t", "ivf", 0, 0.1) // knob 0: table has no tunable knob
	r.RecordAudit("t", "ivf", 0, 0.1)
	if _, _, ok := r.NextKnob("t"); ok {
		t.Fatal("tuner acted with no live knob set")
	}
}

func TestSeedKnobAndTunedKnob(t *testing.T) {
	r := NewRegistry(0.95)
	if _, ok := r.TunedKnob("t"); ok {
		t.Fatal("fresh table reported a tuned knob")
	}
	r.SetCurrent("t", "ivf", "nprobe", 4)
	if _, ok := r.TunedKnob("t"); ok {
		t.Fatal("SetCurrent must not mark the knob tuned")
	}
	r.SeedKnob("T", "ivf", "nprobe", 7) // canonicalizes
	if knob, ok := r.TunedKnob("t"); !ok || knob != 7 {
		t.Fatalf("TunedKnob after seed = (%d, %v), want (7, true)", knob, ok)
	}
	r.KnobApplied("t", 11)
	if knob, ok := r.TunedKnob("t"); !ok || knob != 11 {
		t.Fatalf("TunedKnob after apply = (%d, %v), want (11, true)", knob, ok)
	}
}

func TestDropForgetsTableAndJoins(t *testing.T) {
	r := NewRegistry(0.95)
	r.RecordJoin("a", "b", 10, 10, 20)
	r.RecordJoin("b", "c", 10, 10, 20)
	r.RecordAudit("a", "ivf", 4, 0.9)
	r.Drop("A")
	d := r.Dump()
	if _, ok := d.Tables["a"]; ok {
		t.Fatal("dropped table still in dump")
	}
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
	r := NewRegistry(0.9)
	r.SetCurrent("t", "ivf", "nprobe", 4)
	r.RecordAudit("t", "ivf", 4, 0.8)
	r.RecordRegret("x", "y")
	d := r.Dump()
	if d.RecallSLO != 0.9 || d.Audits != 1 || d.Regret != 1 {
		t.Fatalf("dump totals wrong: %+v", d)
	}
	ts := d.Tables["t"]
	if ts.Kind != "ivf" || ts.KnobName != "nprobe" || ts.Knob != 4 || ts.Audits != 1 {
		t.Fatalf("table dump wrong: %+v", ts)
	}
	if got := ts.RecallByKnob["4"]; got != 0.8 {
		t.Fatalf("RecallByKnob[4] = %v, want 0.8", got)
	}
}

func TestNewRegistryDefaultsBadSLO(t *testing.T) {
	for _, slo := range []float64{0, -1, 1.5} {
		if got := NewRegistry(slo).SLO(); got != 0.95 {
			t.Fatalf("NewRegistry(%v).SLO() = %v, want default 0.95", slo, got)
		}
	}
}
