package plan

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/relational"
)

func testTables(t *testing.T) (left, right *relational.Table) {
	t.Helper()
	base := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	var err error
	left, err = relational.NewTable(
		relational.Schema{
			{Name: "word", Type: relational.String},
			{Name: "taken", Type: relational.Time},
		},
		[]relational.Column{
			relational.StringColumn{"barbecue", "database", "clothes", "quantum"},
			relational.TimeColumn{base, base.AddDate(0, 1, 0), base.AddDate(0, 2, 0), base.AddDate(0, 3, 0)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	right, err = relational.NewTable(
		relational.Schema{
			{Name: "term", Type: relational.String},
			{Name: "score", Type: relational.Int64},
		},
		[]relational.Column{
			relational.StringColumn{"barbecues", "databases", "clothing", "giraffe", "quantums"},
			relational.Int64Column{1, 2, 3, 4, 5},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return lineage(left), lineage(right)
}

// incarnations numbers the test tables' row lineages: a text column is
// embedded into column chunks keyed by its table's incarnation, so no two
// tables may share one.
var incarnations atomic.Uint64

// lineage gives t a row lineage of its own.
func lineage(t *relational.Table) *relational.Table {
	return t.WithIncarnation(incarnations.Add(1))
}

// testStore is an executor's embedding store, unbounded.
func testStore() *embstore.Store { return embstore.New(embstore.Config{}) }

func testQuery(t *testing.T) Query {
	t.Helper()
	left, right := testTables(t)
	m, err := model.NewHashEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	return Query{
		Left:  TableRef{Name: "L", Table: left, TextColumn: "word"},
		Right: TableRef{Name: "R", Table: right, TextColumn: "term"},
		Model: m,
		Join:  JoinSpec{Kind: ThresholdJoin, Threshold: 0.4},
	}
}

func TestJoinKindString(t *testing.T) {
	if ThresholdJoin.String() != "threshold" || TopKJoin.String() != "top-k" {
		t.Error("kind names")
	}
	if JoinKind(7).String() != "JoinKind(7)" {
		t.Error("unknown kind")
	}
}

func TestNaivePlanValidation(t *testing.T) {
	q := testQuery(t)

	bad := q
	bad.Left.Table = nil
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for nil table")
	}

	bad = q
	bad.Left.TextColumn = ""
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for no column")
	}

	bad = q
	bad.Left.TextColumn = "missing"
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for missing column")
	}

	bad = q
	bad.Model = nil
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for nil model with text columns")
	}

	bad = q
	bad.Join.Threshold = 2
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for threshold > 1")
	}

	bad = q
	bad.Join = JoinSpec{Kind: TopKJoin, K: 0}
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for k=0")
	}

	bad = q
	bad.Join = JoinSpec{Kind: JoinKind(9)}
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for unknown kind")
	}

	bad = q
	bad.Left.TextColumn = "score" // BIGINT, not TEXT
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for non-text column")
	}
}

// explainLines lists every node's Explain line, parents before children.
func explainLines(n Node) string {
	lines := n.Explain() + "\n"
	for _, c := range n.Children() {
		lines += explainLines(c)
	}
	return lines
}

func TestNaivePlanStructure(t *testing.T) {
	q := testQuery(t)
	q.Left.Predicates = []relational.Pred{{Column: "taken", Op: relational.GT, Value: time.Date(2023, 1, 15, 0, 0, 0, 0, time.UTC)}}
	p, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != cost.StrategyNLJ {
		t.Errorf("naive strategy = %v, want the NLJ of Figure 1", p.Strategy)
	}
	// Left subtree: Filter above Embed above Scan (the eager plan).
	f, ok := p.Left.(*Filter)
	if !ok {
		t.Fatalf("left root = %T, want *Filter", p.Left)
	}
	if _, ok := f.Input.(*Embed); !ok {
		t.Fatalf("filter input = %T, want *Embed", f.Input)
	}
	tree := explainLines(p)
	for _, want := range []string{"EJoin", "Filter", "Embed", "Scan(L", "Scan(R"} {
		if !strings.Contains(tree, want) {
			t.Errorf("explain missing %q:\n%s", want, tree)
		}
	}
}

func TestOptimizerPushdown(t *testing.T) {
	q := testQuery(t)
	q.Left.Predicates = []relational.Pred{{Column: "taken", Op: relational.GT, Value: time.Date(2023, 1, 15, 0, 0, 0, 0, time.UTC)}}
	p, _ := NewNaivePlan(q)
	opt, err := NewOptimizer().Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	// After pushdown + reorder, the filtered input holds Embed above Filter.
	var filteredSide Node
	for _, side := range []Node{opt.Left, opt.Right} {
		if e, ok := side.(*Embed); ok {
			if _, ok := e.Input.(*Filter); ok {
				filteredSide = side
			}
		}
	}
	if filteredSide == nil {
		t.Fatalf("no Embed(Filter(Scan)) input found:\n%s", explainLines(opt))
	}
	// Original plan untouched.
	if _, ok := p.Left.(*Filter); !ok {
		t.Error("optimizer mutated its input plan")
	}
}

func TestOptimizerDisableFlags(t *testing.T) {
	q := testQuery(t)
	q.Left.Predicates = []relational.Pred{{Column: "taken", Op: relational.GT, Value: time.Date(2023, 1, 15, 0, 0, 0, 0, time.UTC)}}
	p, _ := NewNaivePlan(q)
	o := NewOptimizer()
	o.DisableReorder = true
	opt, err := o.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Swapped {
		t.Error("reorder applied despite disable")
	}
	// Pushdown is not an option: the filter is below E_µ regardless.
	if e, ok := opt.Left.(*Embed); !ok {
		t.Errorf("left root = %T, want *Embed above the pushed-down filter", opt.Left)
	} else if _, ok := e.Input.(*Filter); !ok {
		t.Errorf("embed input = %T, want *Filter", e.Input)
	}
}

func TestOptimizerReorder(t *testing.T) {
	// Left (4 rows) smaller than right (5 rows): after reorder the larger
	// side drives the outer loop, smaller inner.
	q := testQuery(t)
	p, _ := NewNaivePlan(q)
	opt, err := NewOptimizer().Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Swapped {
		t.Fatalf("expected swap (|L|=4 < |R|=5):\n%s", explainLines(opt))
	}
}

func TestOptimizerForceStrategy(t *testing.T) {
	q := testQuery(t)
	p, _ := NewNaivePlan(q)
	opt, err := forced(cost.StrategyTensor).Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Strategy != cost.StrategyTensor {
		t.Errorf("forced the tensor scan, planned %v", opt.Strategy)
	}
}

// TestOnlyScanAndProbeExecute: a plan is a tensor scan. Forcing any other
// strategy is an error, not a silent tensor scan (a caller timing each
// strategy relies on that to skip the rest), and the executor rejects a
// hand-built plan naming one before it embeds a row.
func TestOnlyScanAndProbeExecute(t *testing.T) {
	q := testQuery(t)
	counted := model.NewCountingModel(q.Model)
	q.Model = counted
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []cost.Strategy{cost.StrategyNLJ, cost.StrategyIndex, cost.Strategy(9)} {
		if j, err := forced(s).Optimize(naive); err == nil {
			t.Errorf("forcing %v planned %v, want an error", s, j.Strategy)
		}
		tensor, err := forced(cost.StrategyTensor).Optimize(naive)
		if err != nil {
			t.Fatal(err)
		}
		tensor.Strategy = s
		counted.Reset()
		if _, err := (&Executor{Store: testStore()}).ExecuteStreaming(context.Background(), tensor, 0); err == nil {
			t.Errorf("executed a hand-built %v plan", s)
		}
		if counted.Calls() != 0 {
			t.Errorf("rejected %v plan made %d model calls", s, counted.Calls())
		}
	}
}

func TestOptimizerEstimates(t *testing.T) {
	q := testQuery(t)
	p, _ := NewNaivePlan(q)
	opt, _ := NewOptimizer().Optimize(p)
	if est := opt.Estimates[cost.StrategyTensor]; len(opt.Estimates) != 1 || est <= 0 {
		t.Fatalf("estimates %v, want the tensor scan's alone", opt.Estimates)
	}
	if opt.Strategy != cost.StrategyTensor {
		t.Errorf("planned %v, want the tensor scan", opt.Strategy)
	}
}

func embedColumn(t *testing.T, m model.Model, tbl *relational.Table, col string) *mat.Matrix {
	t.Helper()
	texts, err := tbl.Strings(col)
	if err != nil {
		t.Fatal(err)
	}
	em, err := core.Embed(context.Background(), m, texts)
	if err != nil {
		t.Fatal(err)
	}
	return em
}

// TestExecuteNaiveVsOptimized: the naive plan of Figure 1, run by its
// per-pair kernel core.NaiveNLJ, and the optimized plan produce the same
// matches; the optimized plan makes far fewer model calls.
func TestExecuteNaiveVsOptimized(t *testing.T) {
	q := testQuery(t)
	counted := model.NewCountingModel(q.Model)
	q.Model = counted
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Store: testStore()}
	ctx := context.Background()

	lw, _ := q.Left.Table.Strings("word")
	rw, _ := q.Right.Table.Strings("term")
	counted.Reset()
	resNaive, err := core.NaiveNLJ(ctx, counted, lw, rw, q.Join.Threshold, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naiveCalls := counted.Calls()

	opt, err := NewOptimizer().Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	counted.Reset()
	resOpt, err := ex.ExecuteStreaming(ctx, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	optCalls := counted.Calls()

	if naiveCalls <= optCalls {
		t.Errorf("naive calls %d should exceed optimized %d", naiveCalls, optCalls)
	}
	if optCalls != int64(4+5) {
		t.Errorf("optimized calls = %d, want 9", optCalls)
	}
	assertSameMatches(t, resNaive.Matches, resOpt.Matches)
	// Semantics: barbecue~barbecues etc., giraffe matches nothing.
	got := map[string]string{}
	for _, m := range resOpt.Matches {
		got[lw[m.Left]] = rw[m.Right]
	}
	if got["barbecue"] != "barbecues" || got["database"] != "databases" {
		t.Errorf("semantic matches wrong: %v", got)
	}
	for _, m := range resOpt.Matches {
		if rw[m.Right] == "giraffe" {
			t.Errorf("giraffe matched: %+v", m)
		}
	}
}

func assertSameMatches(t *testing.T, a, b []core.Match) {
	t.Helper()
	ka := map[[2]int]bool{}
	for _, m := range a {
		ka[[2]int{m.Left, m.Right}] = true
	}
	kb := map[[2]int]bool{}
	for _, m := range b {
		kb[[2]int{m.Left, m.Right}] = true
	}
	if len(ka) != len(kb) {
		t.Fatalf("match counts differ: %d vs %d (%v vs %v)", len(ka), len(kb), a, b)
	}
	for k := range ka {
		if !kb[k] {
			t.Fatalf("pair %v missing", k)
		}
	}
}

// TestExecuteWithPredicates: filters constrain matches and reduce embedding
// work in the optimized plan.
func TestExecuteWithPredicates(t *testing.T) {
	q := testQuery(t)
	counted := model.NewCountingModel(q.Model)
	q.Model = counted
	// Keep only left rows 2,3 (taken > Feb 15) and right rows with score >= 3.
	q.Left.Predicates = []relational.Pred{{Column: "taken", Op: relational.GT, Value: time.Date(2023, 2, 15, 0, 0, 0, 0, time.UTC)}}
	q.Right.Predicates = []relational.Pred{{Column: "score", Op: relational.GE, Value: int64(3)}}

	naive, _ := NewNaivePlan(q)
	opt, err := NewOptimizer().Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	counted.Reset()
	res, err := (&Executor{Store: testStore()}).ExecuteStreaming(context.Background(), opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pushdown: only 2 + 3 rows embedded.
	if counted.Calls() != 5 {
		t.Errorf("embedded %d rows, want 5 (pushdown)", counted.Calls())
	}
	for _, m := range res.Matches {
		if m.Left < 2 {
			t.Errorf("left filter violated: %+v", m)
		}
		if m.Right < 2 {
			t.Errorf("right filter violated: %+v", m)
		}
	}
	// clothes(2) ~ clothing(2 in right) survives both filters.
	found := false
	for _, m := range res.Matches {
		if m.Left == 2 && m.Right == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected clothes~clothing among %v", res.Matches)
	}
	if len(res.LeftRows) != 2 || len(res.RightRows) != 3 {
		t.Errorf("surviving rows: %v / %v", res.LeftRows, res.RightRows)
	}
}

func TestExecuteTopK(t *testing.T) {
	q := testQuery(t)
	q.Join = JoinSpec{Kind: TopKJoin, K: 1, Threshold: -2}
	naive, _ := NewNaivePlan(q)
	opt, err := NewOptimizer().Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Executor{Store: testStore()}).ExecuteStreaming(context.Background(), opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One match per original-left row (orientation restored after swap).
	if len(res.Matches) != 4 {
		t.Fatalf("top-1 per left row: %d matches: %v", len(res.Matches), res.Matches)
	}
	seen := map[int]bool{}
	for _, m := range res.Matches {
		if seen[m.Left] {
			t.Errorf("duplicate left row %d", m.Left)
		}
		seen[m.Left] = true
	}
}

func TestExecuteTopKRange(t *testing.T) {
	q := testQuery(t)
	q.Join = JoinSpec{Kind: TopKJoin, K: 2, Threshold: 0.4}
	naive, _ := NewNaivePlan(q)
	opt, _ := NewOptimizer().Optimize(naive)
	res, err := (&Executor{Store: testStore()}).ExecuteStreaming(context.Background(), opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.Sim < 0.4 {
			t.Errorf("range condition violated: %+v", m)
		}
	}
	// quantum's best match may be below threshold; matches < 4*2.
	if len(res.Matches) >= 8 {
		t.Errorf("threshold did not prune: %d matches", len(res.Matches))
	}
}

func TestExecuteNaiveTopKUnsupported(t *testing.T) {
	q := testQuery(t)
	q.Join = JoinSpec{Kind: TopKJoin, K: 1}
	naive, _ := NewNaivePlan(q)
	if _, err := (&Executor{Store: testStore()}).ExecuteStreaming(context.Background(), naive, 0); err == nil {
		t.Error("expected error for naive top-k")
	}
}

// TestExecuteIndexStrategy pins the contract a caller timing each
// strategy in turn relies on (the repo benchmark's traced pass forces
// StrategyNLJ, StrategyTensor and StrategyIndex and skips any that fail):
// forcing the index probe or the NLJ makes Optimize return an error, with
// no model call and no panic, and the tensor scan plans and executes.
func TestExecuteIndexStrategy(t *testing.T) {
	q := testQuery(t)
	counted := model.NewCountingModel(q.Model)
	q.Model = counted
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Store: testStore()}
	for _, s := range []cost.Strategy{cost.StrategyNLJ, cost.StrategyTensor, cost.StrategyIndex} {
		counted.Reset()
		j, err := (&Optimizer{Params: cost.DefaultParams(), Store: ex.Store, ForceStrategy: &s}).Optimize(naive)
		if s != cost.StrategyTensor {
			if err == nil {
				t.Errorf("forcing %v planned %v, want an error", s, j.Strategy)
			}
			if n := counted.Calls(); n != 0 {
				t.Errorf("forcing %v made %d model calls", s, n)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.ExecuteStreaming(context.Background(), j, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != cost.StrategyTensor || len(res.Matches) == 0 {
			t.Errorf("forced tensor scan: %d matches by %v", len(res.Matches), res.Strategy)
		}
	}
}

func TestMaterializeResult(t *testing.T) {
	q := testQuery(t)
	res, _, err := Run(context.Background(), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := MaterializeResult(q, res)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != len(res.Matches) {
		t.Errorf("rows = %d, want %d", tbl.NumRows(), len(res.Matches))
	}
	if _, err := tbl.Strings("l_word"); err != nil {
		t.Error(err)
	}
	if _, err := tbl.Strings("r_term"); err != nil {
		t.Error(err)
	}
	sims, err := tbl.Floats("similarity")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sims {
		if s < 0.4 {
			t.Errorf("similarity %v below threshold", s)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	q := testQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Run(ctx, q, nil, nil); err == nil {
		t.Error("expected cancellation error")
	}
}

func TestExecuteModelFailure(t *testing.T) {
	q := testQuery(t)
	q.Model = &model.FailingModel{Inner: q.Model, Match: func(s string) bool { return s == "quantum" }, Err: errTest("down")}
	if _, _, err := Run(context.Background(), q, nil, nil); !errors.Is(err, errTest("down")) {
		t.Errorf("err = %v, want the model's failure", err)
	}
}

// TestTextColumnNeedsStoreAndIncarnation: a text column is embedded only
// through the store's column chunks, so an executor without a store, or a
// table without an incarnation, is an error before any model call.
func TestTextColumnNeedsStoreAndIncarnation(t *testing.T) {
	q := testQuery(t)
	counted := model.NewCountingModel(q.Model)
	q.Model = counted
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewOptimizer().Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Executor{}).ExecuteStreaming(context.Background(), j, 0); err == nil || !strings.Contains(err.Error(), "embedding store") {
		t.Errorf("executor without a store: err = %v", err)
	}
	// Only the probe side lacks an incarnation: the plan is rejected
	// before the build side is embedded.
	probeOnly := q
	if j.Swapped {
		probeOnly.Right.Table = q.Right.Table.WithIncarnation(0)
	} else {
		probeOnly.Left.Table = q.Left.Table.WithIncarnation(0)
	}
	if naive, err = NewNaivePlan(probeOnly); err != nil {
		t.Fatal(err)
	}
	if j, err = NewOptimizer().Optimize(naive); err != nil {
		t.Fatal(err)
	}
	if findScan(j.Left).Ref.Table.Incarnation() != 0 {
		t.Fatal("test needs the incarnation-0 table on the probe side")
	}
	if _, err := (&Executor{Store: testStore()}).ExecuteStreaming(context.Background(), j, 0); err == nil || !strings.Contains(err.Error(), "incarnation") {
		t.Errorf("probe table without an incarnation: err = %v", err)
	}
	if n := counted.Calls(); n != 0 {
		t.Errorf("plan with an unlowerable probe made %d model calls", n)
	}
	q.Left.Table, q.Right.Table = q.Left.Table.WithIncarnation(0), q.Right.Table.WithIncarnation(0)
	naive, err = NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if j, err = NewOptimizer().Optimize(naive); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Executor{Store: testStore()}).ExecuteStreaming(context.Background(), j, 0); err == nil || !strings.Contains(err.Error(), "incarnation") {
		t.Errorf("table without an incarnation: err = %v", err)
	}
	if n := counted.Calls(); n != 0 {
		t.Errorf("rejected plans made %d model calls", n)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }
