package plan

// The executor's correctness suite. Every query shape is checked two ways:
// against internal/oracle (brute force in float64 over the visible,
// predicate-passing rows: surviving selections, match ids, order and
// similarities), and for block-size invariance — the same plan at
// BlockRows 1, 16 and >= |probe| must return byte-identical matches,
// which is what makes LIMIT's first-N well defined. The largest block is
// the whole probe side resident at once.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/hnsw"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/oracle"
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
	return lineage(left), lineage(right)
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

// shapeBlockRows are the probe block sizes every shape runs at; the last
// holds the whole 300-row probe side in one block.
var shapeBlockRows = []int{1, 16, 4096}

// f32Tol is the band around a threshold or a k-th best similarity inside
// which the float32 kernels and the float64 oracle may disagree.
const f32Tol = 1e-5

func oracleSide(ref TableRef) oracle.Side {
	return oracle.Side{Table: ref.Table, Text: ref.TextColumn, Vector: ref.VectorColumn, Visible: ref.Visible, Preds: ref.Predicates}
}

func assertSameSelection(t *testing.T, name string, want []int, got relational.Selection) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d rows, got %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s[%d]: want %d, got %d", name, i, want[i], got[i])
		}
	}
}

// checkOracle checks res against the brute-force answer for q: surviving
// selections exactly, matches per oracle.Answer.Check. The oracle runs in
// the executed orientation (a swapped plan emits in (Right, Left) order).
func checkOracle(t *testing.T, q Query, j *EJoin, res *ExecResult, tol, minRecall float64) *oracle.Answer {
	t.Helper()
	l, r := oracleSide(q.Left), oracleSide(q.Right)
	gotL, gotR := res.LeftRows, res.RightRows
	got := make([]oracle.Match, len(res.Matches))
	for i, m := range res.Matches {
		got[i] = oracle.Match{Left: m.Left, Right: m.Right, Sim: float64(m.Sim)}
	}
	if j.Swapped {
		l, r, gotL, gotR = r, l, gotR, gotL
		for i, m := range got {
			got[i].Left, got[i].Right = m.Right, m.Left
		}
	}
	spec := oracle.Spec{Threshold: float64(q.Join.Threshold)}
	if q.Join.Kind == TopKJoin {
		spec.K = q.Join.K
	}
	ans, err := oracle.Join(q.Model, l, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, "probe rows", ans.LeftRows, gotL)
	assertSameSelection(t, "build rows", ans.RightRows, gotR)
	if err := ans.Check(got, tol, minRecall); err != nil {
		t.Fatal(err)
	}
	return ans
}

// runShape optimizes q under opt and executes it at every block size with
// an executor over a fresh store (so model calls count every row the run
// embedded). Each run is checked against the oracle, all runs must be
// byte-identical in matches, similarities and order, and the work
// accounting must hold: wantCalls model calls (< 0: one per distinct text
// among the surviving rows of either side, since the store embeds a text
// once for every row and table holding it) and, for scan strategies, one
// comparison per surviving pair. The BlockRows=16 result is returned.
func runShape(t *testing.T, q Query, opt *Optimizer, tune func(*Executor), tol, minRecall float64, wantCalls int64) (*ExecResult, *EJoin) {
	t.Helper()
	var first, at16 *ExecResult
	var plan16 *EJoin
	for _, rows := range shapeBlockRows {
		naive, err := NewNaivePlan(q)
		if err != nil {
			t.Fatal(err)
		}
		optimized, err := opt.Optimize(naive)
		if err != nil {
			t.Fatal(err)
		}
		ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 2}, IndexEf: 16, Store: testStore(), BlockRows: rows}
		if tune != nil {
			tune(ex)
		}
		res, err := ex.ExecuteStreaming(context.Background(), optimized, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatal("shape produced no matches; the assertions are vacuous")
		}
		ans := checkOracle(t, q, optimized, res, tol, minRecall)
		nl, nr := int64(len(ans.LeftRows)), int64(len(ans.RightRows))
		want := wantCalls
		if want < 0 {
			want = distinctTexts(t, map[*TableRef][]int{&q.Left: res.LeftRows, &q.Right: res.RightRows})
		}
		if res.Stats.ModelCalls != want {
			t.Errorf("BlockRows=%d: %d model calls, want %d", rows, res.Stats.ModelCalls, want)
		}
		if res.Strategy != cost.StrategyIndex && res.Stats.Comparisons != nl*nr {
			t.Errorf("BlockRows=%d: %d comparisons, want %d x %d", rows, res.Stats.Comparisons, nl, nr)
		}
		if first == nil {
			first = res
		}
		if len(res.Matches) != len(first.Matches) {
			t.Fatalf("BlockRows=%d: %d matches, BlockRows=%d: %d", rows, len(res.Matches), shapeBlockRows[0], len(first.Matches))
		}
		for i := range res.Matches {
			if res.Matches[i] != first.Matches[i] {
				t.Fatalf("match %d: BlockRows=%d %+v, BlockRows=%d %+v", i, rows, res.Matches[i], shapeBlockRows[0], first.Matches[i])
			}
		}
		if rows == 16 {
			at16, plan16 = res, optimized
		}
	}
	return at16, plan16
}

// distinctTexts counts the distinct texts the rows of each input hold in
// its text column.
func distinctTexts(t *testing.T, rows map[*TableRef][]int) int64 {
	t.Helper()
	seen := map[string]bool{}
	for ref, sel := range rows {
		texts, err := ref.Table.Strings(ref.TextColumn)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sel {
			seen[texts[r]] = true
		}
	}
	return int64(len(seen))
}

func forced(s cost.Strategy) *Optimizer {
	o := NewOptimizer()
	o.ForceStrategy = &s
	return o
}

// TestStreamingDifferentialThresholdNLJ runs the threshold shape at the
// kernel's default S-block width; core.TestNLJTensorEquivalence holds the
// paper's tuple-at-a-time baseline core.NLJ to that kernel.
func TestStreamingDifferentialThresholdNLJ(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	runShape(t, q, forced(cost.StrategyTensor), nil, f32Tol, 1, -1)
}

func TestStreamingDifferentialThresholdTensor(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	// Short S blocks: several per probe block.
	runShape(t, q, forced(cost.StrategyTensor), func(ex *Executor) { ex.Options.BatchCols = 16 }, f32Tol, 1, -1)
}

func TestStreamingDifferentialTopK(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 3, Threshold: -2})
	runShape(t, q, forced(cost.StrategyTensor), nil, f32Tol, 1, -1)
}

func TestStreamingDifferentialTopKResidual(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 3, Threshold: 0.9})
	runShape(t, q, forced(cost.StrategyTensor), nil, f32Tol, 1, -1)
}

func TestStreamingDifferentialFiltered(t *testing.T) {
	// Predicates on both inputs, pushed into both scans: a dropped
	// build-side predicate shows as extra build rows and extra matches.
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	q.Left.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(200)}}
	q.Right.Predicates = []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(250)}}
	runShape(t, q, NewOptimizer(), nil, f32Tol, 1, -1)
}

// indexRecallFloor is the share of each probe row's true top-k an HNSW
// probe at ef=16 must return on this 43-row build side.
const indexRecallFloor = 0.9

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
	runShape(t, q, o, nil, f32Tol, indexRecallFloor, -1)
}

func TestStreamingDifferentialIndexBuiltOnDemand(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: TopKJoin, K: 1, Threshold: -2})
	o := forced(cost.StrategyIndex)
	o.DisableReorder = true
	runShape(t, q, o, nil, f32Tol, indexRecallFloor, -1)
}

func TestStreamingDifferentialMVCCSnapshot(t *testing.T) {
	// Pinned visibility sets on both inputs (every third probe row
	// tombstoned, build side truncated past row 30): an input that ignored
	// Visible would join rows the oracle never sees.
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	var vis relational.Selection
	for r := 0; r < q.Left.Table.NumRows(); r++ {
		if r%3 != 0 {
			vis = append(vis, r)
		}
	}
	q.Left.Visible = vis
	q.Right.Visible = relational.All(q.Right.Table.NumRows())[:30]
	runShape(t, q, forced(cost.StrategyTensor), nil, f32Tol, 1, -1)
}

func TestStreamingLimitFirstN(t *testing.T) {
	q := streamQuery(t, JoinSpec{Kind: ThresholdJoin, Threshold: 0.85})
	full, optimized := runShape(t, q, forced(cost.StrategyTensor), nil, f32Tol, 1, -1)
	const limit = 7
	if len(full.Matches) <= limit {
		t.Fatalf("need more than %d total matches, have %d", limit, len(full.Matches))
	}
	for _, rows := range shapeBlockRows {
		ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 2}, Store: testStore(), BlockRows: rows}
		st, err := ex.ExecuteStreaming(context.Background(), optimized, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Truncated {
			t.Error("limit below total matches must mark the result truncated")
		}
		if len(st.Matches) != limit {
			t.Fatalf("BlockRows=%d: %d matches, want %d", rows, len(st.Matches), limit)
		}
		// First-N: the limited run is the prefix of the oracle-checked
		// unlimited answer, whatever the block size.
		for i := 0; i < limit; i++ {
			if full.Matches[i] != st.Matches[i] {
				t.Fatalf("BlockRows=%d match %d: unlimited %+v, limited %+v", rows, i, full.Matches[i], st.Matches[i])
			}
		}
		// The short-circuit must be real: a stream cut after a few small
		// blocks embeds fewer rows than the full run.
		if rows == 16 && st.Stats.ModelCalls >= full.Stats.ModelCalls {
			t.Errorf("limit did not short-circuit: %d model calls, unlimited %d", st.Stats.ModelCalls, full.Stats.ModelCalls)
		}
		// The post-predicate selections are computed at Open and stay
		// complete even though the stream stopped early.
		assertSameSelection(t, "LeftRows", full.LeftRows, st.LeftRows)
		assertSameSelection(t, "RightRows", full.RightRows, st.RightRows)
	}
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
	optimized, err := forced(cost.StrategyTensor).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, Store: testStore(), BlockRows: 8}
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
	optimized, err := forced(cost.StrategyTensor).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, Store: testStore(), BlockRows: 16}
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
	// The build child is the same scan drained as one block: one Embed
	// batch, whatever the probe block size.
	if build := res.Analysis.Children[1]; !strings.HasPrefix(build.Name, "Embed(") || !strings.Contains(build.Detail, "batches=1 ") {
		t.Errorf("build child = %q detail %q, want an Embed node with batches=1", build.Name, build.Detail)
	}
	if res.Ops == nil {
		t.Error("result must carry per-operator stats")
	}
	var batches int64
	for _, op := range res.Ops {
		batches += op.Batches
	}
	if batches == 0 {
		t.Error("operator stats recorded no batches")
	}
	// The trace must carry aggregated phase spans (one "embed" for the
	// build side, one aggregated "embed" and one "join:tensor" for the whole
	// probe stream) — not one span per block, or traces would grow with
	// stream length.
	snap := tr.Finish("", nil, res.Analysis)
	var embedSpans, joinSpans int
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "embed":
			embedSpans++
		case "join:tensor":
			joinSpans++
		}
	}
	if embedSpans != 2 || joinSpans != 1 {
		t.Errorf("spans: embed=%d join:tensor=%d, want 2 and 1", embedSpans, joinSpans)
	}
	if len(snap.Spans) > 8 {
		t.Errorf("%d spans recorded for a %d-block stream; spans must not scale with blocks",
			len(snap.Spans), res.Ops[0].Batches)
	}
}
