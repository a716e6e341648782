package plan

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/hnsw"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// streamCorpus builds a probe/build table pair large enough for many
// blocks, with the build side a strided subset of the probe side's
// strings so every query shape has guaranteed matches (identical strings
// embed identically: similarity 1).
func streamCorpus(t *testing.T, probeRows, buildStride int) (left, right *relational.Table) {
	t.Helper()
	words := workload.Strings(11, probeRows, nil)
	var buildWords []string
	var scores []int64
	for i := 0; i < len(words); i += buildStride {
		buildWords = append(buildWords, words[i])
		scores = append(scores, int64(i))
	}
	probeScores := make(relational.Int64Column, len(words))
	for i := range probeScores {
		probeScores[i] = int64(i)
	}
	var err error
	left, err = relational.NewTable(
		relational.Schema{{Name: "word", Type: relational.String}, {Name: "n", Type: relational.Int64}},
		[]relational.Column{relational.StringColumn(words), probeScores},
	)
	if err != nil {
		t.Fatal(err)
	}
	right, err = relational.NewTable(
		relational.Schema{{Name: "term", Type: relational.String}, {Name: "n", Type: relational.Int64}},
		[]relational.Column{relational.StringColumn(buildWords), relational.Int64Column(scores)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return left, right
}

// streamQuery is the base query over the stream corpus.
func streamQuery(t *testing.T, spec JoinSpec) Query {
	t.Helper()
	left, right := streamCorpus(t, 300, 7)
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	return Query{
		Left:  TableRef{Name: "L", Table: left, TextColumn: "word"},
		Right: TableRef{Name: "R", Table: right, TextColumn: "term"},
		Model: m,
		Join:  spec,
	}
}

// assertIdentical requires the two executions to agree exactly: match
// lists (ids, similarities, and order), surviving row selections, and
// strategy. This is the streaming engine's correctness contract — not
// set-equality, byte-equality, so LIMIT's first-N is well-defined.
func assertIdentical(t *testing.T, mat, st *ExecResult) {
	t.Helper()
	if mat.Strategy != st.Strategy {
		t.Fatalf("strategy: materializing %v, streaming %v", mat.Strategy, st.Strategy)
	}
	if len(mat.Matches) != len(st.Matches) {
		t.Fatalf("match count: materializing %d, streaming %d", len(mat.Matches), len(st.Matches))
	}
	for i := range mat.Matches {
		if mat.Matches[i] != st.Matches[i] {
			t.Fatalf("match %d: materializing %+v, streaming %+v", i, mat.Matches[i], st.Matches[i])
		}
	}
	assertSameSelection(t, "LeftRows", mat.LeftRows, st.LeftRows)
	assertSameSelection(t, "RightRows", mat.RightRows, st.RightRows)
}

func assertSameSelection(t *testing.T, name string, a, b relational.Selection) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: materializing %d rows, streaming %d rows", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: materializing %d, streaming %d", name, i, a[i], b[i])
		}
	}
}

// diffShape optimizes q under opt, runs it through both executors, and
// asserts identical results and identical cardinality accounting.
func diffShape(t *testing.T, q Query, opt *Optimizer, tune func(*Executor)) {
	t.Helper()
	run := func(streaming bool) (*ExecResult, *EJoin) {
		naive, err := NewNaivePlan(q)
		if err != nil {
			t.Fatal(err)
		}
		optimized, err := opt.Optimize(naive)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh executor per run: no shared store, so model-call counts are
		// directly comparable.
		ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 2}, IndexEf: 16, BlockRows: 16}
		if tune != nil {
			tune(ex)
		}
		var res *ExecResult
		if streaming {
			res, err = ex.ExecuteStreaming(context.Background(), optimized, 0)
		} else {
			res, err = ex.Execute(context.Background(), optimized)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, optimized
	}
	mat, _ := run(false)
	st, _ := run(true)
	if len(mat.Matches) == 0 {
		t.Fatal("shape produced no matches; differential assertion is vacuous")
	}
	assertIdentical(t, mat, st)
	if mat.Stats.ModelCalls != st.Stats.ModelCalls {
		t.Errorf("model calls: materializing %d, streaming %d", mat.Stats.ModelCalls, st.Stats.ModelCalls)
	}
	if mat.Stats.Comparisons != st.Stats.Comparisons && st.Strategy != cost.StrategyIndex {
		// Index probes may take different graph walks per block boundary;
		// scan strategies must compare exactly the same pairs.
		t.Errorf("comparisons: materializing %d, streaming %d", mat.Stats.Comparisons, st.Stats.Comparisons)
	}
}

func forced(s cost.Strategy) *Optimizer {
	o := NewOptimizer()
	o.ForceStrategy = &s
	return o
}

func TestStreamingDifferentialThresholdNLJ(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	diffShape(t, q, forced(cost.StrategyNLJ), nil)
}

func TestStreamingDifferentialThresholdTensor(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	// Short S blocks: several per probe block.
	diffShape(t, q, forced(cost.StrategyTensor), func(ex *Executor) { ex.Options.BatchCols = 16 })
}

func TestStreamingDifferentialTopK(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 3, Threshold: -2})
	diffShape(t, q, forced(cost.StrategyNLJ), nil)
}

func TestStreamingDifferentialTopKResidual(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 3, Threshold: 0.9})
	diffShape(t, q, forced(cost.StrategyTensor), nil)
}

func TestStreamingDifferentialFiltered(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	q.Left.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(200)}}
	q.Right.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(250)}}
	diffShape(t, q, NewOptimizer(), nil)
}

func TestStreamingDifferentialFilterAboveEmbed(t *testing.T) {
	// Pushdown disabled: the filter stays above E_µ, so streaming must
	// embed every scanned row (through a RowFilter) to report the same
	// model work the un-pushed-down materializing plan pays.
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	q.Left.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(150)}}
	o := forced(cost.StrategyNLJ)
	o.DisablePushdown = true
	diffShape(t, q, o, nil)
}

func TestStreamingDifferentialNaiveFallback(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	o := forced(cost.StrategyNaiveNLJ)
	optimized, err := o.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 2}, BlockRows: 16}
	st, err := ex.ExecuteStreaming(context.Background(), optimized, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Streamed {
		t.Error("naive strategy must fall back to the materializing executor")
	}
	mat, err := ex.Execute(context.Background(), optimized)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, mat, st)
}

func TestStreamingDifferentialQuantized(t *testing.T) {
	for _, p := range []quant.Precision{quant.PrecisionF16, quant.PrecisionInt8} {
		t.Run(p.String(), func(t *testing.T) {
			q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.8})
			o := forced(cost.StrategyNLJ)
			// Forced precision, zero slack: no demotion guard on either
			// path, and per-row scales make block-wise int8/f16 encoding
			// identical to whole-matrix encoding.
			o.Precision = p
			diffShape(t, q, o, nil)
		})
	}
}

func TestStreamingDifferentialIndex(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 2, Threshold: -2})
	// Precompute right-side vectors and attach an HNSW index; restrict
	// visibility to a prefix to exercise the RightFilter mask.
	rw, _ := q.Right.Table.Strings("term")
	rv, err := core.Embed(context.Background(), q.Model, rw)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(rv, hnsw.Config{M: 8, EfConstruction: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q.Right.Index = idx
	q.Right.Visible = relational.All(q.Right.Table.NumRows())[:30]

	o := forced(cost.StrategyIndex)
	o.DisableReorder = true
	diffShape(t, q, o, nil)
}

func TestStreamingDifferentialIndexBuiltOnDemand(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 1, Threshold: -2})
	o := forced(cost.StrategyIndex)
	o.DisableReorder = true
	diffShape(t, q, o, nil)
}

func TestStreamingDifferentialMVCCSnapshot(t *testing.T) {
	// Both executors over the same pinned visibility sets (every third
	// probe row tombstoned, build side truncated past row 30).
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	var vis relational.Selection
	for r := 0; r < q.Left.Table.NumRows(); r++ {
		if r%3 != 0 {
			vis = append(vis, r)
		}
	}
	q.Left.Visible = vis
	q.Right.Visible = relational.All(q.Right.Table.NumRows())[:30]
	diffShape(t, q, forced(cost.StrategyNLJ), nil)
}

func TestStreamingLimitFirstN(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := forced(cost.StrategyNLJ).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 2}, BlockRows: 16}
	mat, err := ex.Execute(context.Background(), optimized)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 7
	if len(mat.Matches) <= limit {
		t.Fatalf("need more than %d total matches, have %d", limit, len(mat.Matches))
	}
	st, err := ex.ExecuteStreaming(context.Background(), optimized, limit)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated {
		t.Error("limit below total matches must mark the stream truncated")
	}
	if len(st.Matches) != limit {
		t.Fatalf("streamed %d matches, want %d", len(st.Matches), limit)
	}
	for i := 0; i < limit; i++ {
		if mat.Matches[i] != st.Matches[i] {
			t.Fatalf("match %d: materializing %+v, streaming %+v", i, mat.Matches[i], st.Matches[i])
		}
	}
	// The short-circuit must be real: a truncated stream embeds fewer
	// rows than the full materializing run.
	if st.Stats.ModelCalls >= mat.Stats.ModelCalls {
		t.Errorf("limit did not short-circuit: streaming %d model calls, materializing %d",
			st.Stats.ModelCalls, mat.Stats.ModelCalls)
	}
	// The post-predicate selections are computed at Open and stay
	// complete even though the stream stopped early.
	assertSameSelection(t, "LeftRows", mat.LeftRows, st.LeftRows)
	assertSameSelection(t, "RightRows", mat.RightRows, st.RightRows)
}

// cancelAfterModel cancels a context after n embeddings, so the stream is
// interrupted mid-flight rather than before it starts.
type cancelAfterModel struct {
	model.Model
	n      int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (m *cancelAfterModel) Embed(s string) ([]float32, error) {
	if m.calls.Add(1) == m.n {
		m.cancel()
	}
	return m.Model.Embed(s)
}

func TestStreamingCancelledMidStream(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Build side has ~43 rows; cancel well into the probe-side stream.
	cm := &cancelAfterModel{Model: q.Model, n: 100, cancel: cancel}
	q.Model = cm

	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := forced(cost.StrategyNLJ).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, BlockRows: 8}
	_, err = ex.ExecuteStreaming(ctx, optimized, 0)
	if err == nil {
		t.Fatal("cancelled stream must fail, not return partial results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestStreamingAnalysisTree(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	q.Left.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(100)}}
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := forced(cost.StrategyNLJ).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, BlockRows: 16}
	tr := obs.NewTrace("", "streamed query")
	ctx := obs.WithAnalyze(obs.NewContext(context.Background(), tr))
	res, err := ex.ExecuteStreaming(ctx, optimized, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis == nil {
		t.Fatal("analyze context must build the EXPLAIN ANALYZE tree")
	}
	if res.Analysis.ObsRows != int64(len(res.Matches)) {
		t.Errorf("root ObsRows = %d, want %d", res.Analysis.ObsRows, len(res.Matches))
	}
	if len(res.Analysis.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(res.Analysis.Children))
	}
	if res.Ops == nil {
		t.Error("streamed result must carry per-operator stats")
	}
	var batches int64
	for _, op := range res.Ops {
		batches += op.Batches
	}
	if batches == 0 {
		t.Error("operator stats recorded no batches")
	}
	// The trace must carry aggregated phase spans (one "embed" for the
	// build side, one aggregated "embed" and one "join:nlj" for the whole
	// probe stream) — not one span per block, or traces would grow with
	// stream length.
	snap := tr.Finish("", "", nil, res.Analysis)
	var embedSpans, joinSpans int
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "embed":
			embedSpans++
		case "join:nlj":
			joinSpans++
		}
	}
	if embedSpans != 2 || joinSpans != 1 {
		t.Errorf("spans: embed=%d join:nlj=%d, want 2 and 1", embedSpans, joinSpans)
	}
	if len(snap.Spans) > 8 {
		t.Errorf("%d spans recorded for a %d-block stream; spans must not scale with blocks",
			len(snap.Spans), res.Ops[0].Batches)
	}
}
