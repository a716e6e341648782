package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ejoin/internal/cost"
	"ejoin/internal/mat"
	"ejoin/internal/obs"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// feedbackCostParams forces the planner onto the index path at test
// scale: the default probe constants model a cold ANN structure and only
// favor probing past ~10^5 rows.
func feedbackCostParams() cost.Params {
	p := cost.DefaultParams()
	p.ProbeHop = 0.1
	p.ProbeWidth = 1.01
	return p
}

// feedbackVecTable wraps a matrix as an {id:int64, vec:vector} table.
func feedbackVecTable(t *testing.T, m *mat.Matrix) *relational.Table {
	t.Helper()
	vc := &relational.VectorColumn{Dim: m.Cols()}
	ids := make([]int64, m.Rows())
	for i := 0; i < m.Rows(); i++ {
		ids[i] = int64(i)
		vc.Data = append(vc.Data, m.Row(i)...)
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "id", Type: relational.Int64}, {Name: "vec", Type: relational.Vector}},
		[]relational.Column{relational.Int64Column(ids), vc},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestAutoTuneClosesRecallLoopAndPersists is the acceptance path for the
// feedback loop: an IVF-indexed top-k join starts with nprobe starved to
// 1, the background auditor measures the recall shortfall by re-running
// sampled probes exactly, and the SLO tuner walks the knob up until the
// audited recall@10 estimate clears 0.95. The tuned value then survives a
// snapshot + restart via the manifest.
func TestAutoTuneClosesRecallLoopAndPersists(t *testing.T) {
	const (
		dim, corpusRows, queryRows, k = 16, 300, 8, 10
		slo                           = 0.95
	)
	cfg := Config{
		DataDir:            t.TempDir(),
		Threads:            2,
		IndexTables:        true,
		CostParams:         feedbackCostParams(),
		AuditFraction:      1,
		RecallSLO:          slo,
		SlowQueryThreshold: time.Hour,
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	corpus := workload.Vectors(31, corpusRows, dim)
	// Queries are perturbed corpus rows: near-duplicates whose true top-k
	// concentrates in one IVF list's neighborhood, where nprobe=1 visibly
	// loses recall.
	queries := workload.Vectors(32, queryRows, dim)
	for i := 0; i < queryRows; i++ {
		src := corpus.Row((i * 37) % corpusRows)
		dst := queries.Row(i)
		for d := 0; d < dim; d++ {
			dst[d] = src[d] + 0.05*dst[d]
		}
		vec.Normalize(dst)
	}
	if err := e.RegisterTable("corpus", feedbackVecTable(t, corpus)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable("queries", feedbackVecTable(t, queries)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetIndexKnob("corpus", 1); err != nil {
		t.Fatal(err)
	}

	join := &JoinRequest{
		LeftTable: "queries", LeftColumn: "vec",
		RightTable: "corpus", RightColumn: "vec",
		Kind: "topk", K: k,
	}
	res, err := e.Query(context.Background(), QueryRequest{Join: join})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != cost.StrategyIndex.String() {
		t.Fatalf("test needs the index path, planner chose %s", res.Strategy)
	}

	// Drive the loop: each served query samples one audit (fraction 1);
	// WaitForAudits makes its recall measurement — and any tuner move it
	// triggers — land before the next iteration checks.
	met := func() bool {
		ts, ok := e.FeedbackDump().Tables["corpus"]
		if !ok || ts.Knob <= 1 {
			return false
		}
		return ts.RecallByKnob[fmt.Sprint(ts.Knob)] >= slo
	}
	for i := 0; i < 200 && !met(); i++ {
		if _, err := e.Query(context.Background(), QueryRequest{Join: join}); err != nil {
			t.Fatal(err)
		}
		e.WaitForAudits()
	}
	if !met() {
		t.Fatalf("audited recall never met SLO %.2f: %+v", slo, e.FeedbackDump().Tables["corpus"])
	}
	name, tuned, err := e.IndexKnob("corpus")
	if err != nil {
		t.Fatal(err)
	}
	if name != "nprobe" || tuned <= 1 {
		t.Fatalf("tuner left knob at (%s, %d), want nprobe > 1", name, tuned)
	}
	// The move paid off: audited recall at the starved knob is below the
	// recall at the tuned one.
	ts := e.FeedbackDump().Tables["corpus"]
	before, ok := ts.RecallByKnob["1"]
	if after := ts.RecallByKnob[fmt.Sprint(tuned)]; !ok || before >= after {
		t.Fatalf("recall at nprobe=1 %v (audited %v), at nprobe=%d %v: tuning did not raise recall", before, ok, tuned, after)
	}
	st := e.Stats().Feedback
	if st.Audits == 0 || st.TunerMoves == 0 {
		t.Fatalf("loop accounting empty: %+v", st)
	}

	// The tuned knob must survive a restart on the same directory.
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	name, got, err := e2.IndexKnob("corpus")
	if err != nil {
		t.Fatal(err)
	}
	if name != "nprobe" || got != tuned {
		t.Fatalf("restart lost the tuned knob: (%s, %d), want (nprobe, %d)", name, got, tuned)
	}
	if knob, ok := e2.feedback.TunedKnob("corpus"); !ok || knob != tuned {
		t.Fatalf("registry not reseeded after restart: (%d, %v)", knob, ok)
	}
}

// TestFeedbackCorrectsEstimates checks the cardinality loop: the static
// estimator pegs a threshold join's output at the left row count, a
// workload where every pair matches blows through that, and the second
// run's EXPLAIN must show a feedback-corrected estimate whose q-error is
// strictly below the static one.
func TestFeedbackCorrectsEstimates(t *testing.T) {
	e, _ := newTestEngine(t, Config{SlowQueryThreshold: time.Hour})
	const rows = 30
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = "the same sentence every time"
	}
	for _, name := range []string{"all_a", "all_b"} {
		tbl, err := stringTable(vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable(name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	req := QueryRequest{
		SQL:     "SELECT * FROM all_a JOIN all_b ON SIM(all_a.text, all_b.text) >= 0.8",
		Explain: true,
	}

	first, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	obs := int64(len(first.Matches))
	if obs != rows*rows {
		t.Fatalf("identical rows should all match: got %d, want %d", obs, rows*rows)
	}
	if first.Plan == nil || first.Plan.EstRows != rows {
		t.Fatalf("first run should plan with the static estimate %d: %+v", rows, first.Plan)
	}

	second, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	corrected := second.Plan.EstRows
	if corrected == rows {
		t.Fatal("second run's EXPLAIN still shows the uncorrected estimate")
	}
	staticErr := qerrOf(rows, obs)
	correctedErr := qerrOf(corrected, obs)
	if correctedErr >= staticErr {
		t.Fatalf("corrected q-error %.2f not below static %.2f (est %d vs %d, obs %d)",
			correctedErr, staticErr, corrected, rows, obs)
	}

	d := e.FeedbackDump()
	j, ok := d.Joins["all_a⋈all_b"]
	if !ok {
		t.Fatalf("join pair missing from feedback dump: %+v", d.Joins)
	}
	if j.QErrCorrected >= j.QErrStatic {
		t.Fatalf("registry q-errors: corrected %.2f not below static %.2f", j.QErrCorrected, j.QErrStatic)
	}
	if j.RowsFactor <= 1 {
		t.Fatalf("rows factor %.2f should exceed 1 for an underestimated join", j.RowsFactor)
	}
}

// TestZeroMatchQueriesLeaveInputEstimatesExact holds the planner's input
// pricing to exact counts: a run of zero-match joins corrects the
// output-rows estimate, but must not shrink the inputs the cost model
// prices, so the 20th plan's per-strategy estimates and EXPLAIN input
// cardinalities equal the first plan's.
func TestZeroMatchQueriesLeaveInputEstimatesExact(t *testing.T) {
	// Untraced by default; explain requests force the trace that feeds
	// the feedback loop.
	e, _ := newTestEngine(t, Config{DisableTracing: true, SlowQueryThreshold: time.Hour})
	const rows = 512
	for _, name := range []string{"za", "zb"} {
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = fmt.Sprintf("%s distinct row %d", name, i)
		}
		tbl, err := stringTable(vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable(name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	req := QueryRequest{SQL: "SELECT * FROM za JOIN zb ON SIM(za.text, zb.text) >= 0.999"}
	// One untraced run warms the store without feeding the loop, so every
	// plan below prices the same residency.
	if _, err := e.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	estimates := func() map[cost.Strategy]float64 {
		q, _, err := e.front.resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		run, _, _, err := e.PlanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return run.(*engineRun).j.Estimates
	}
	var inputs func(n *obs.NodeStats) []int64
	inputs = func(n *obs.NodeStats) (est []int64) {
		for _, c := range n.Children {
			est = append(append(est, c.EstRows), inputs(c)...)
		}
		return est
	}
	req.Explain = true
	var firstEst, lastEst map[cost.Strategy]float64
	var firstIn, lastIn []int64
	for i := 0; i < 20; i++ {
		lastEst = estimates()
		res, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 0 {
			t.Fatalf("query %d: %d matches, test needs none", i, len(res.Matches))
		}
		lastIn = inputs(res.Plan)
		if i == 0 {
			firstEst, firstIn = lastEst, lastIn
		}
	}
	if !reflect.DeepEqual(lastEst, firstEst) {
		t.Errorf("cost estimates drifted over zero-match queries: first %v, 20th %v", firstEst, lastEst)
	}
	if !reflect.DeepEqual(lastIn, firstIn) || len(firstIn) == 0 {
		t.Errorf("input cardinalities drifted over zero-match queries: first %v, 20th %v", firstIn, lastIn)
	}
}

// qerrOf mirrors feedback.QError for test assertions.
func qerrOf(est, obs int64) float64 {
	e, o := float64(max(est, 1)), float64(max(obs, 1))
	if e > o {
		return e / o
	}
	return o / e
}

// TestUntracedQueriesSkipFeedback pins the opt-out: with tracing
// disabled, queries must leave no feedback state behind (the loop rides
// the traced path only).
func TestUntracedQueriesSkipFeedback(t *testing.T) {
	e, _ := newTestEngine(t, Config{DisableTracing: true, AuditFraction: 1})
	if _, err := e.Query(context.Background(), QueryRequest{SQL: testQuery}); err != nil {
		t.Fatal(err)
	}
	d := e.FeedbackDump()
	if len(d.Joins) != 0 || d.Audits != 0 {
		t.Fatalf("untraced query left feedback state: %+v", d)
	}
}

// TestDisableAutoTuneRecordsButHolds runs the starved-knob loop with
// tuning off: audits must accrue and show the shortfall, but the knob
// must not move.
func TestDisableAutoTuneRecordsButHolds(t *testing.T) {
	const dim, corpusRows, queryRows = 16, 200, 4
	cfg := Config{
		Threads:            2,
		IndexTables:        true,
		CostParams:         feedbackCostParams(),
		AuditFraction:      1,
		DisableAutoTune:    true,
		SlowQueryThreshold: time.Hour,
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	corpus := workload.Vectors(41, corpusRows, dim)
	queries := workload.Vectors(42, queryRows, dim)
	if err := e.RegisterTable("corpus", feedbackVecTable(t, corpus)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable("queries", feedbackVecTable(t, queries)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetIndexKnob("corpus", 1); err != nil {
		t.Fatal(err)
	}
	join := &JoinRequest{
		LeftTable: "queries", LeftColumn: "vec",
		RightTable: "corpus", RightColumn: "vec",
		Kind: "topk", K: 10,
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Query(context.Background(), QueryRequest{Join: join}); err != nil {
			t.Fatal(err)
		}
		e.WaitForAudits()
	}
	st := e.Stats().Feedback
	if st.Audits == 0 {
		t.Fatal("audits should still run with auto-tune disabled")
	}
	if st.TunerMoves != 0 {
		t.Fatalf("tuner moved %d times with auto-tune disabled", st.TunerMoves)
	}
	if _, knob, err := e.IndexKnob("corpus"); err != nil || knob != 1 {
		t.Fatalf("knob moved to %d (err %v), want it held at 1", knob, err)
	}
}
