package service

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ejoin/internal/oracle"
	"ejoin/internal/workload"
)

// checkAgainstOracle checks one reply over the test engine's left/right
// tables against the brute-force answer (ids, order, similarities). Both
// tables hold 120 rows, so the planner never swaps the inputs and replies
// are in (Left, Right) order.
func checkAgainstOracle(t *testing.T, e *Engine, spec oracle.Spec, res *QueryResult) {
	t.Helper()
	side := func(name string) oracle.Side {
		tbl, ok := e.catalog.Get(name)
		if !ok {
			t.Fatalf("no table %q", name)
		}
		return oracle.Side{Table: tbl, Text: "text"}
	}
	ans, err := oracle.Join(e.model, side("left"), side("right"), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]oracle.Match, len(res.Matches))
	for i, m := range res.Matches {
		got[i] = oracle.Match{Left: m.Left, Right: m.Right, Sim: float64(m.Sim)}
	}
	if err := ans.Check(got, 1e-5, 1); err != nil {
		t.Fatal(err)
	}
}

// TestServiceStreamingDifferential runs every request shape at three
// block sizes. Unlimited replies must match the oracle; a limited reply
// must be the first-N prefix of its unlimited twin; all block sizes must
// agree byte for byte. And a LIMIT that bites must be invisible to the
// planner's closed loop: the engine ends with the same cardinality
// feedback as one that served only the unlimited requests.
func TestServiceStreamingDifferential(t *testing.T) {
	thr := 0.8
	side := JoinRequest{LeftTable: "left", LeftColumn: "text", RightTable: "right", RightColumn: "text"}
	topk, range8 := side, side
	topk.Kind, topk.K = "topk", 2
	range8.Kind, range8.Threshold = "threshold", &thr
	requests := []struct {
		req  QueryRequest
		spec oracle.Spec // unlimited requests: the oracle's condition
		full int         // limited requests: index of the unlimited twin
	}{
		{req: QueryRequest{SQL: testQuery}, spec: oracle.Spec{Threshold: 0.8}},
		{req: QueryRequest{SQL: testQuery, Limit: 3}, full: 0},
		{req: QueryRequest{Join: &topk}, spec: oracle.Spec{K: 2, Threshold: -2}},
		{req: QueryRequest{Join: &range8, Limit: 5}, full: 0},
	}
	ctx := context.Background()
	var first []*QueryResult
	for _, rows := range []int{1, 16, 4096} {
		e, _ := newTestEngine(t, Config{ExecBlockRows: rows})
		unlimited, _ := newTestEngine(t, Config{ExecBlockRows: rows})
		var replies []*QueryResult
		for i, r := range requests {
			res, err := e.Query(ctx, r.req)
			if err != nil {
				t.Fatalf("BlockRows=%d request %d: %v", rows, i, err)
			}
			replies = append(replies, res)
			if r.req.Limit == 0 {
				checkAgainstOracle(t, e, r.spec, res)
				if _, err := unlimited.Query(ctx, r.req); err != nil {
					t.Fatal(err)
				}
				continue
			}
			full := replies[r.full].Matches
			if len(full) <= r.req.Limit || len(res.Matches) != r.req.Limit {
				t.Fatalf("BlockRows=%d request %d: %d of %d matches under limit %d; the limit must bite",
					rows, i, len(res.Matches), len(full), r.req.Limit)
			}
			if !reflect.DeepEqual(res.Matches, full[:r.req.Limit]) {
				t.Errorf("BlockRows=%d request %d is not the first %d matches of its unlimited twin", rows, i, r.req.Limit)
			}
		}
		if first == nil {
			first = replies
		}
		for i, res := range replies {
			if res.Strategy != first[i].Strategy || !reflect.DeepEqual(res.Matches, first[i].Matches) {
				t.Errorf("BlockRows=%d request %d differs from BlockRows=1", rows, i)
			}
		}
		if got, want := e.FeedbackDump(), unlimited.FeedbackDump(); !reflect.DeepEqual(got, want) {
			t.Errorf("BlockRows=%d: censored requests left feedback:\ngot:  %+v\nwant: %+v", rows, got, want)
		}
		st := e.Stats()
		if st.Exec.TruncatedQueries != 2 {
			t.Errorf("BlockRows=%d: %d truncated queries, want 2", rows, st.Exec.TruncatedQueries)
		}
		if st.Exec.Batches == 0 {
			t.Error("engine recorded no batches")
		}
	}
}

// TestStreamingAdmissionWeight is the over-admission-starvation fix: a
// plan holds build side + one probe block of the byte budget, not both
// whole inputs, so a budget that could not fit one whole-input charge
// admits several queries at once.
func TestStreamingAdmissionWeight(t *testing.T) {
	// A large probe side against a small build side.
	const probeRows, buildRows, blockRows, dim = 600, 60, 16, 64
	registerAsym := func(e *Engine) {
		for _, side := range []struct {
			name string
			rows int
		}{{"big", probeRows}, {"small", buildRows}} {
			tbl, err := stringTable(workload.Strings(9, side.rows, nil))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterTable(side.name, tbl); err != nil {
				t.Fatal(err)
			}
		}
	}
	thr := 0.8
	asymQuery := QueryRequest{Join: &JoinRequest{
		LeftTable: "big", LeftColumn: "text",
		RightTable: "small", RightColumn: "text",
		Kind: "threshold", Threshold: &thr,
	}}

	// The weight under an effectively unbounded budget (no clamping).
	e, _ := newTestEngine(t, Config{ExecBlockRows: blockRows})
	registerAsym(e)
	ctx := context.Background()
	res, err := e.Query(ctx, asymQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(buildRows+blockRows) * dim * 4
	weight, whole := res.AdmittedBytes, int64(probeRows+buildRows)*dim*4
	if weight != want {
		t.Fatalf("admitted %d bytes, want (build + one block) x dim x 4 = %d", weight, want)
	}
	if weight*4 > whole {
		t.Fatalf("weight %d not >= 4x lighter than both whole inputs (%d)", weight, whole)
	}

	// A shared budget sized for exactly four such queries could not hold
	// even one whole-input charge.
	budget := 4 * weight
	if budget >= whole {
		t.Fatalf("budget %d fits a whole-input charge of %d; test needs it not to", budget, whole)
	}

	// And empirically: four concurrent queries under that budget all admit
	// without a single wait.
	e4, _ := newTestEngine(t, Config{ExecBlockRows: 16, AdmissionBytes: budget, MaxConcurrent: 8})
	registerAsym(e4)
	// Warm the corpus first so the concurrent round is compute-light.
	if _, err := e4.Query(ctx, asymQuery); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e4.Query(ctx, asymQuery); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if waits := e4.Stats().AdmissionWaits; waits != 0 {
		t.Errorf("4 queries under a 4-query budget waited %d times, want 0", waits)
	}
}

// TestStreamingMetricsFamilies requires the exec metric families in the
// exposition after unlimited and limited queries.
func TestStreamingMetricsFamilies(t *testing.T) {
	e, _ := newTestEngine(t, Config{ExecBlockRows: 16})
	ctx := context.Background()
	if _, err := e.Query(ctx, QueryRequest{SQL: testQuery}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, QueryRequest{SQL: testQuery, Limit: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ejoin_exec_truncated_queries_total 1",
		"ejoin_exec_batches_total",
		"ejoin_exec_rows_early_out_total",
		`ejoin_exec_operator_duration_seconds_bucket{operator="scan"`,
		`ejoin_exec_operator_duration_seconds_bucket{operator="probe:`,
		`ejoin_exec_operator_duration_seconds_bucket{operator="limit"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
