package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/obs"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// runTraced optimizes and executes q with a trace attached and the
// analyze marker set, returning the result and the finished snapshot.
func runTraced(t *testing.T, q Query) (*ExecResult, *obs.TraceSnapshot) {
	t.Helper()
	tr := obs.NewTrace("", "test query")
	ctx := obs.WithAnalyze(obs.NewContext(context.Background(), tr))
	res, _, err := Run(ctx, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.Finish("", nil, res.Analysis)
}

func TestExecuteBuildsAnalysisTree(t *testing.T) {
	q := testQuery(t)
	res, snap := runTraced(t, q)

	root := res.Analysis
	if root == nil {
		t.Fatal("traced execution produced no analysis tree")
	}
	if !strings.HasPrefix(root.Name, "EJoin(") {
		t.Fatalf("root node = %q, want EJoin(...)", root.Name)
	}
	if root.ObsRows != int64(len(res.Matches)) {
		t.Fatalf("root obs rows %d != matches %d", root.ObsRows, len(res.Matches))
	}
	// Threshold heuristic: one match per left row.
	if root.EstRows != 4 {
		t.Fatalf("root est rows = %d, want 4 (left cardinality)", root.EstRows)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	// Each input chain is Embed -> Scan (no predicates in testQuery).
	for _, c := range root.Children {
		if !strings.HasPrefix(c.Name, "Embed(") {
			t.Fatalf("input root = %q, want Embed(...)", c.Name)
		}
		if !strings.Contains(c.Detail, "misses=") {
			t.Fatalf("embed node lacks hit/miss detail: %q", c.Detail)
		}
		if len(c.Children) != 1 || !strings.HasPrefix(c.Children[0].Name, "Scan(") {
			t.Fatalf("embed child should be a Scan, got %+v", c.Children)
		}
		sc := c.Children[0]
		if sc.EstRows != sc.ObsRows {
			t.Fatalf("unfiltered scan est %d != obs %d", sc.EstRows, sc.ObsRows)
		}
	}
	rendered := obs.RenderAnalyze(root)
	if !strings.Contains(rendered, "est=") || !strings.Contains(rendered, "obs=") {
		t.Fatalf("rendered analyze missing est/obs: %s", rendered)
	}

	// Spans: two embeds plus one join span.
	var embeds, joins int
	for _, sp := range snap.Spans {
		switch {
		case sp.Name == "embed":
			embeds++
			if sp.Attrs["misses"] == 0 {
				t.Fatalf("store-less embed should be all misses: %+v", sp)
			}
		case strings.HasPrefix(sp.Name, "join:"):
			joins++
		}
	}
	if embeds != 2 || joins != 1 {
		t.Fatalf("got %d embed spans and %d join spans, want 2 and 1", embeds, joins)
	}
}

func TestAnalysisFilterSelectivityGap(t *testing.T) {
	q := testQuery(t)
	q.Right.Predicates = []relational.Pred{{Column: "score", Op: relational.GT, Value: int64(2)}}
	res, _ := runTraced(t, q)

	// Find the Filter node somewhere under the root.
	var filter *obs.NodeStats
	var walk func(n *obs.NodeStats)
	walk = func(n *obs.NodeStats) {
		if n == nil {
			return
		}
		if strings.HasPrefix(n.Name, "Filter(") {
			filter = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(res.Analysis)
	if filter == nil {
		t.Fatalf("no Filter node in analysis tree:\n%s", obs.RenderAnalyze(res.Analysis))
	}
	if filter.EstRows != 5 || filter.ObsRows != 3 {
		t.Fatalf("filter est/obs = %d/%d, want 5/3 (score>2 keeps 3 of 5)", filter.EstRows, filter.ObsRows)
	}
}

func TestUntracedExecutionSkipsAnalysis(t *testing.T) {
	q := testQuery(t)
	res, _, err := Run(context.Background(), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis != nil {
		t.Fatal("untraced execution should not build an analysis tree")
	}

	// A trace alone is not enough: plain traced queries record spans but
	// skip the per-node tree — only the analyze marker builds it.
	tr := obs.NewTrace("", "test query")
	res, _, err = Run(obs.NewContext(context.Background(), tr), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis != nil {
		t.Fatal("traced execution without the analyze marker should not build an analysis tree")
	}
}

func TestTopKEstimate(t *testing.T) {
	q := testQuery(t)
	q.Join = JoinSpec{Kind: TopKJoin, K: 3, Threshold: -2}
	res, _ := runTraced(t, q)
	if res.Analysis.EstRows != 12 {
		t.Fatalf("top-k est = %d, want 12 (4 left rows × k=3)", res.Analysis.EstRows)
	}
	if res.Analysis.ObsRows != 12 {
		t.Fatalf("top-k obs = %d, want 12", res.Analysis.ObsRows)
	}
}

// TestAnalyzeShowsSkippedSteps checks that a tensor scan's k-step
// accounting shows on the join node — the pruned fraction the cost model
// can read instead of guessing — and that it matches the result's stats.
func TestAnalyzeShowsSkippedSteps(t *testing.T) {
	naive, err := NewNaivePlan(streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85}))
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := forced(cost.StrategyTensor).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, Store: testStore(), BlockRows: 64}
	ctx := obs.WithAnalyze(obs.NewContext(context.Background(), obs.NewTrace("", "tensor scan")))
	res, err := ex.ExecuteStreaming(ctx, optimized, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.KSteps == 0 || st.KStepsSkipped > st.KSteps {
		t.Fatalf("%d of %d k-steps skipped", st.KStepsSkipped, st.KSteps)
	}
	want := fmt.Sprintf("k_skipped=%d k_steps=%d", st.KStepsSkipped, st.KSteps)
	if !strings.Contains(res.Analysis.Detail, want) {
		t.Errorf("join detail %q lacks %q", res.Analysis.Detail, want)
	}
}

// A filtered join's estimates come from one exact count per filter: EXPLAIN
// ANALYZE's est_rows and the admission footprint read the rows the
// predicates select, and the naive plan Optimize read is left unchanged.
func TestFilteredJoinEstimatesAreExactCounts(t *testing.T) {
	q := testQuery(t)
	q.Left.Predicates = []relational.Pred{{Column: "taken", Op: relational.GT, Value: time.Date(2023, 1, 15, 0, 0, 0, 0, time.UTC)}}
	q.Right.Predicates = []relational.Pred{{Column: "score", Op: relational.GT, Value: int64(2)}}
	q.Join = JoinSpec{Kind: TopKJoin, K: 2, Threshold: -2}
	count := func(ref TableRef) int {
		sel, err := relational.And(ref.Table, ref.Predicates...)
		if err != nil {
			t.Fatal(err)
		}
		return len(sel)
	}
	lr, rr := count(q.Left), count(q.Right)
	if lr != 3 || rr != 3 {
		t.Fatalf("fixture selects %d and %d rows, want 3 and 3", lr, rr)
	}

	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	before := explainTree(naive)
	j, err := NewOptimizer().Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if after := explainTree(naive); after != before {
		t.Fatalf("Optimize changed its input:\n%s\nvs\n%s", before, after)
	}
	if j.EstRows != int64(lr*2) {
		t.Fatalf("EstRows = %d, want %d (k=2 per selected left row)", j.EstRows, lr*2)
	}
	if got, want := EstimateFootprint(j, 64, 0), int64(rr+lr)*64*4; got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}

	res, _ := runTraced(t, q)
	if res.Analysis.EstRows != int64(lr*2) {
		t.Fatalf("EXPLAIN est_rows = %d, want %d", res.Analysis.EstRows, lr*2)
	}
}

// explainTree renders a plan's nodes, one Explain per line, depth first.
func explainTree(n Node) string {
	s := n.Explain() + "\n"
	for _, c := range n.Children() {
		s += explainTree(c)
	}
	return s
}
