package plan

import (
	"context"
	"strings"
	"testing"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/hnsw"
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
	return left, right
}

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
	bad.Left.VectorColumn = "word" // TEXT, not VECTOR
	if _, err := NewNaivePlan(bad); err == nil {
		t.Error("expected error for non-vector column")
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
	if p.Prefetch {
		t.Error("naive plan must not prefetch")
	}
	if p.Strategy != cost.StrategyNaiveNLJ {
		t.Errorf("naive strategy = %v", p.Strategy)
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
	if !opt.Prefetch {
		t.Error("optimized plan must prefetch")
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
	o.DisablePushdown = true
	o.DisablePrefetch = true
	o.DisableReorder = true
	opt, err := o.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Prefetch {
		t.Error("prefetch applied despite disable")
	}
	if opt.Swapped {
		t.Error("reorder applied despite disable")
	}
	if opt.Strategy != cost.StrategyNaiveNLJ {
		t.Errorf("strategy = %v, want NaiveNLJ without prefetch", opt.Strategy)
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
	// No swap when right side carries an index.
	q2 := testQuery(t)
	rightVecs := embedColumn(t, q2.Model, q2.Right.Table, "term")
	idx, err := core.BuildIndex(rightVecs, hnsw.Config{M: 4, EfConstruction: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q2.Right.Index = idx
	p2, _ := NewNaivePlan(q2)
	opt2, err := NewOptimizer().Optimize(p2)
	if err != nil {
		t.Fatal(err)
	}
	if opt2.Swapped {
		t.Error("must not swap away an indexed inner")
	}
}

func TestOptimizerForceStrategy(t *testing.T) {
	q := testQuery(t)
	p, _ := NewNaivePlan(q)
	o := NewOptimizer()
	s := cost.StrategyNLJ
	o.ForceStrategy = &s
	opt, _ := o.Optimize(p)
	if opt.Strategy != cost.StrategyNLJ {
		t.Errorf("forced strategy = %v", opt.Strategy)
	}
}

func TestOptimizerEstimates(t *testing.T) {
	q := testQuery(t)
	p, _ := NewNaivePlan(q)
	opt, _ := NewOptimizer().Optimize(p)
	if len(opt.Estimates) == 0 {
		t.Fatal("no cost estimates recorded")
	}
	if opt.Strategy == cost.StrategyIndex {
		t.Error("index strategy chosen without an index")
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

// TestExecuteNaiveVsOptimized: both plans produce the same matches; the
// optimized plan makes far fewer model calls.
func TestExecuteNaiveVsOptimized(t *testing.T) {
	q := testQuery(t)
	counted := model.NewCountingModel(q.Model)
	q.Model = counted
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{}
	ctx := context.Background()

	counted.Reset()
	resNaive, err := ex.ExecuteStreaming(ctx, naive, 0)
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
	lw, _ := q.Left.Table.Strings("word")
	rw, _ := q.Right.Table.Strings("term")
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
	res, err := (&Executor{}).ExecuteStreaming(context.Background(), opt, 0)
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
	res, err := (&Executor{}).ExecuteStreaming(context.Background(), opt, 0)
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
	res, err := (&Executor{}).ExecuteStreaming(context.Background(), opt, 0)
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
	if _, err := (&Executor{}).ExecuteStreaming(context.Background(), naive, 0); err == nil {
		t.Error("expected error for naive top-k")
	}
}

func TestExecuteVectorColumn(t *testing.T) {
	// Precompute embeddings into a vector column; no model calls at
	// execution time (Figure 5 Option 1).
	q := testQuery(t)
	lw, _ := q.Left.Table.Strings("word")
	rw, _ := q.Right.Table.Strings("term")
	ctx := context.Background()
	lv, err := core.Embed(ctx, q.Model, lw)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := core.Embed(ctx, q.Model, rw)
	if err != nil {
		t.Fatal(err)
	}
	lcol, _ := relational.NewVectorColumn(rowsOf(lv))
	rcol, _ := relational.NewVectorColumn(rowsOf(rv))
	lt, _ := q.Left.Table.WithColumn("emb", lcol)
	rt, _ := q.Right.Table.WithColumn("emb", rcol)

	counted := model.NewCountingModel(q.Model)
	q2 := Query{
		Left:  TableRef{Name: "L", Table: lt, VectorColumn: "emb"},
		Right: TableRef{Name: "R", Table: rt, VectorColumn: "emb"},
		Model: counted,
		Join:  q.Join,
	}
	res, pl, err := Run(ctx, q2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counted.Calls() != 0 {
		t.Errorf("vector column path made %d model calls", counted.Calls())
	}
	if pl.Strategy == cost.StrategyNaiveNLJ {
		t.Error("optimizer left naive strategy")
	}
	got := map[string]string{}
	for _, m := range res.Matches {
		got[lw[m.Left]] = rw[m.Right]
	}
	if got["barbecue"] != "barbecues" {
		t.Errorf("matches = %v", got)
	}
}

func rowsOf(m *mat.Matrix) [][]float32 {
	out := make([][]float32, m.Rows())
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

func TestExecuteIndexStrategy(t *testing.T) {
	q := testQuery(t)
	rw, _ := q.Right.Table.Strings("term")
	ctx := context.Background()
	rv, err := core.Embed(ctx, q.Model, rw)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(rv, hnsw.Config{M: 4, EfConstruction: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q.Right.Index = idx
	q.Join = JoinSpec{Kind: TopKJoin, K: 1, Threshold: -2}
	q.Right.Predicates = []relational.Pred{{Column: "score", Op: relational.LE, Value: int64(3)}}

	naive, _ := NewNaivePlan(q)
	o := NewOptimizer()
	s := cost.StrategyIndex
	o.ForceStrategy = &s
	opt, err := o.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Executor{IndexEf: 16}).ExecuteStreaming(ctx, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != cost.StrategyIndex {
		t.Errorf("strategy = %v", res.Strategy)
	}
	if len(res.Matches) != 4 {
		t.Fatalf("matches = %v", res.Matches)
	}
	for _, m := range res.Matches {
		if m.Right > 2 {
			t.Errorf("pre-filter violated (score <= 3 keeps rows 0..2): %+v", m)
		}
	}
}

func TestExecuteIndexBuiltOnDemand(t *testing.T) {
	q := testQuery(t)
	q.Join = JoinSpec{Kind: TopKJoin, K: 1, Threshold: -2}
	naive, _ := NewNaivePlan(q)
	o := NewOptimizer()
	o.DisableReorder = true
	s := cost.StrategyIndex
	o.ForceStrategy = &s
	opt, _ := o.Optimize(naive)
	res, err := (&Executor{IndexEf: 16}).ExecuteStreaming(context.Background(), opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 4 {
		t.Errorf("matches = %v", res.Matches)
	}
}

func TestExecuteIndexSizeMismatch(t *testing.T) {
	q := testQuery(t)
	// Index over the wrong number of rows must be rejected.
	rw, _ := q.Right.Table.Strings("term")
	rv, _ := core.Embed(context.Background(), q.Model, rw[:2])
	idx, _ := core.BuildIndex(rv, hnsw.Config{M: 4, EfConstruction: 8, Seed: 1})
	q.Right.Index = idx
	q.Join = JoinSpec{Kind: TopKJoin, K: 1, Threshold: -2}
	naive, _ := NewNaivePlan(q)
	o := NewOptimizer()
	o.DisableReorder = true
	s := cost.StrategyIndex
	o.ForceStrategy = &s
	opt, _ := o.Optimize(naive)
	if _, err := (&Executor{}).ExecuteStreaming(context.Background(), opt, 0); err == nil {
		t.Error("expected index size mismatch error")
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
	if _, _, err := Run(context.Background(), q, nil, nil); err == nil {
		t.Error("expected model failure to propagate")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }
