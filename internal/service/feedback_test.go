package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ejoin/internal/cost"
	"ejoin/internal/obs"
)

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
	e, _ := newTestEngine(t, Config{DisableTracing: true})
	if _, err := e.Query(context.Background(), QueryRequest{SQL: testQuery}); err != nil {
		t.Fatal(err)
	}
	d := e.FeedbackDump()
	if len(d.Joins) != 0 {
		t.Fatalf("untraced query left feedback state: %+v", d)
	}
}
