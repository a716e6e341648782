package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ejoin/internal/hnsw"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

func testModel(t *testing.T, dim int) model.Model {
	t.Helper()
	m, err := model.NewHashEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// slowModel sleeps before every Embed call: an expensive model on the
// critical path.
type slowModel struct {
	model.Model
	delay time.Duration
}

func (m slowModel) Embed(s string) ([]float32, error) {
	time.Sleep(m.delay)
	return m.Model.Embed(s)
}

func randomWords(rng *rand.Rand, n int) []string {
	base := []string{"barbecue", "database", "postgres", "clothes", "giraffe", "quantum", "analytics", "vector"}
	out := make([]string, n)
	for i := range out {
		w := base[rng.Intn(len(base))]
		// Inject variation: suffix or character twiddle.
		switch rng.Intn(3) {
		case 0:
			w += "s"
		case 1:
			w = w[:len(w)-1]
		}
		out[i] = fmt.Sprintf("%s%d", w, rng.Intn(5))
	}
	return out
}

func randomEmbeddings(seed int64, rows, dim int) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(rows, dim)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	m.NormalizeRows()
	return m
}

func matchKeys(ms []Match) map[[2]int]float32 {
	out := make(map[[2]int]float32, len(ms))
	for _, m := range ms {
		out[[2]int{m.Left, m.Right}] = m.Sim
	}
	return out
}

func sameMatchSet(t *testing.T, label string, a, b []Match, eps float32) {
	t.Helper()
	ka, kb := matchKeys(a), matchKeys(b)
	if len(ka) != len(kb) {
		t.Fatalf("%s: %d vs %d matches", label, len(ka), len(kb))
	}
	for k, sa := range ka {
		sb, ok := kb[k]
		if !ok {
			t.Fatalf("%s: pair %v missing", label, k)
		}
		if d := sa - sb; d > eps || d < -eps {
			t.Fatalf("%s: pair %v sims differ: %v vs %v", label, k, sa, sb)
		}
	}
}

func TestEmbed(t *testing.T) {
	m := testModel(t, 32)
	em, err := Embed(context.Background(), m, []string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if em.Rows() != 2 || em.Cols() != 32 {
		t.Fatalf("shape %dx%d", em.Rows(), em.Cols())
	}
	for i := 0; i < em.Rows(); i++ {
		if !vec.IsNormalized(em.Row(i), 1e-4) {
			t.Errorf("embed output row %d not normalized", i)
		}
	}
}

func TestEmbedErrors(t *testing.T) {
	m := testModel(t, 16)
	if _, err := Embed(context.Background(), m, []string{"ok", ""}); err == nil {
		t.Error("expected error for empty string")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Embed(ctx, m, []string{"a"}); err == nil {
		t.Error("expected cancellation error")
	}
}

// TestNaivePrefetchEquivalence: the logical optimization must not change
// results, only cost (Section IV-A).
func TestNaivePrefetchEquivalence(t *testing.T) {
	m := testModel(t, 48)
	rng := rand.New(rand.NewSource(61))
	left := randomWords(rng, 12)
	right := randomWords(rng, 15)
	ctx := context.Background()

	naive, err := NaiveNLJ(ctx, m, left, right, 0.6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := PrefetchNLJ(ctx, m, left, right, 0.6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameMatchSet(t, "naive vs prefetch", naive.Matches, pre.Matches, 1e-3)
}

// TestModelCallCounts validates the cost-model equations empirically:
// naive makes 2|R||S| calls, prefetch |R|+|S|.
func TestModelCallCounts(t *testing.T) {
	inner := testModel(t, 16)
	counted := model.NewCountingModel(inner)
	rng := rand.New(rand.NewSource(67))
	left := randomWords(rng, 7)
	right := randomWords(rng, 9)
	ctx := context.Background()

	if _, err := NaiveNLJ(ctx, counted, left, right, 0.9, Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := counted.Calls(), int64(2*7*9); got != want {
		t.Errorf("naive model calls = %d, want %d", got, want)
	}

	counted.Reset()
	res, err := PrefetchNLJ(ctx, counted, left, right, 0.9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counted.Calls(), int64(7+9); got != want {
		t.Errorf("prefetch model calls = %d, want %d", got, want)
	}
	if res.Stats.ModelCalls != 16 {
		t.Errorf("reported ModelCalls = %d", res.Stats.ModelCalls)
	}
}

// TestNLJTensorEquivalence: the tensor formulation is an exact rewrite of
// the prefetched NLJ (Section IV-C).
func TestNLJTensorEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		left := randomEmbeddings(seed, 40, 24)
		right := randomEmbeddings(seed+100, 30, 24)
		threshold := float32(0.2)

		nlj, err := NLJ(ctx, left, right, threshold, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{
			{},
			{BudgetBytes: 4 * 10 * 10},
			{BatchRows: 7, BatchCols: 11},
			{Kernel: vec.KernelSIMD, Threads: 2},
		} {
			tj, err := TensorJoin(ctx, left, right, threshold, o)
			if err != nil {
				t.Fatal(err)
			}
			sameMatchSet(t, fmt.Sprintf("seed %d opts %+v", seed, o), nlj.Matches, tj.Matches, 1e-3)
		}
		nb, err := TensorJoinBatched(ctx, left, right, threshold, Options{BatchRows: left.Rows(), BatchCols: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameMatchSet(t, "non-batched", nlj.Matches, nb.Matches, 1e-3)
	}
}

func TestKernelsProduceSameJoin(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(7, 25, 33)
	right := randomEmbeddings(8, 25, 33)
	a, err := NLJ(ctx, left, right, 0.1, Options{Kernel: vec.KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NLJ(ctx, left, right, 0.1, Options{Kernel: vec.KernelSIMD})
	if err != nil {
		t.Fatal(err)
	}
	sameMatchSet(t, "scalar vs simd", a.Matches, b.Matches, 1e-3)
}

func TestNLJDeterministicAcrossThreads(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(9, 50, 16)
	right := randomEmbeddings(10, 40, 16)
	base, err := NLJ(ctx, left, right, 0.1, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 8, 100} {
		got, err := NLJ(ctx, left, right, 0.1, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != len(base.Matches) {
			t.Fatalf("threads %d: %d vs %d matches", threads, len(got.Matches), len(base.Matches))
		}
		for i := range got.Matches {
			if got.Matches[i].Left != base.Matches[i].Left || got.Matches[i].Right != base.Matches[i].Right {
				t.Fatalf("threads %d: order differs at %d", threads, i)
			}
		}
	}
}

func TestJoinDimensionMismatch(t *testing.T) {
	ctx := context.Background()
	a := mat.New(2, 3)
	b := mat.New(2, 4)
	if _, err := NLJ(ctx, a, b, 0, Options{}); err == nil {
		t.Error("nlj: expected dim error")
	}
	if _, err := TensorJoin(ctx, a, b, 0, Options{}); err == nil {
		t.Error("tensor: expected dim error")
	}
	if _, err := TensorTopK(ctx, a, b, 1, Options{}); err == nil {
		t.Error("topk: expected dim error")
	}
}

func TestTensorJoinBudgetRespected(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(11, 100, 8)
	right := randomEmbeddings(12, 100, 8)
	budget := int64(4 * 20 * 20)
	res, err := TensorJoinBatched(ctx, left, right, 0.5, Options{BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakIntermediateBytes > budget {
		t.Errorf("peak %d exceeds budget %d", res.Stats.PeakIntermediateBytes, budget)
	}
	if res.Stats.Blocks < 25 {
		t.Errorf("expected many blocks, got %d", res.Stats.Blocks)
	}
	// The fused scan stores no block: it reports the S blocks it walked
	// and a scratch that depends on neither input's height nor a budget:
	// one packed S block and a tile of up to two 4x16 panels.
	for _, o := range []Options{{Threads: 1}, {Threads: 1, BudgetBytes: budget}, {Threads: 1, Kernel: vec.KernelSIMD}} {
		res2, err := TensorJoin(ctx, left, right, 0.5, o)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Stats.Blocks != 2 || res2.Stats.PeakIntermediateBytes > 64*8*4+512 {
			t.Errorf("fused stats under %+v: %+v", o, res2.Stats)
		}
		sameMatchSet(t, "fused vs batched", res.Matches, res2.Matches, 0)
	}
}

func TestTensorJoinComparisons(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(13, 30, 8)
	right := randomEmbeddings(14, 20, 8)
	res, err := TensorJoin(ctx, left, right, 2, Options{}) // threshold 2: no matches
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Error("threshold 2 must match nothing")
	}
	if res.Stats.Comparisons != 600 {
		t.Errorf("comparisons = %d, want 600", res.Stats.Comparisons)
	}
}

func TestFiltersRespected(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(15, 20, 8)
	right := randomEmbeddings(16, 20, 8)
	lf := relational.BitmapFromSelection(20, relational.Selection{0, 1, 2})
	rf := relational.BitmapFromSelection(20, relational.Selection{5, 6})

	check := func(label string, ms []Match) {
		t.Helper()
		for _, m := range ms {
			if m.Left > 2 {
				t.Errorf("%s: left filter violated: %+v", label, m)
			}
			if m.Right != 5 && m.Right != 6 {
				t.Errorf("%s: right filter violated: %+v", label, m)
			}
		}
	}
	opts := Options{LeftFilter: lf, RightFilter: rf}
	nlj, err := NLJ(ctx, left, right, -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("nlj", nlj.Matches)
	if len(nlj.Matches) != 6 {
		t.Errorf("nlj filtered matches = %d, want 6", len(nlj.Matches))
	}
	tj, err := TensorJoin(ctx, left, right, -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("tensor", tj.Matches)
	sameMatchSet(t, "filtered nlj vs tensor", nlj.Matches, tj.Matches, 1e-3)

	tk, err := TensorTopK(ctx, left, right, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("topk", tk.Matches)
	if len(tk.Matches) != 3 {
		t.Errorf("topk filtered matches = %d, want 3 (one per surviving left row)", len(tk.Matches))
	}
}

func TestNaiveNLJFilters(t *testing.T) {
	m := testModel(t, 16)
	ctx := context.Background()
	left := []string{"aaa", "bbb", "ccc"}
	right := []string{"aaa", "zzz"}
	lf := relational.BitmapFromSelection(3, relational.Selection{0})
	rf := relational.BitmapFromSelection(2, relational.Selection{0})
	res, err := NaiveNLJ(ctx, m, left, right, -1, Options{LeftFilter: lf, RightFilter: rf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Left != 0 || res.Matches[0].Right != 0 {
		t.Errorf("matches = %v", res.Matches)
	}
}

func TestTensorTopKMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(17, 25, 16)
	right := randomEmbeddings(18, 40, 16)
	k := 3
	res, err := TensorTopK(ctx, left, right, k, Options{BatchRows: 7, BatchCols: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 25*k {
		t.Fatalf("matches = %d, want %d", len(res.Matches), 25*k)
	}
	// Brute force per row.
	for i := 0; i < left.Rows(); i++ {
		var sims []float32
		for j := 0; j < right.Rows(); j++ {
			sims = append(sims, vec.Dot(vec.KernelScalar, left.Row(i), right.Row(j)))
		}
		// k-th largest as cutoff.
		sorted := append([]float32{}, sims...)
		for a := 0; a < len(sorted); a++ {
			for b := a + 1; b < len(sorted); b++ {
				if sorted[b] > sorted[a] {
					sorted[a], sorted[b] = sorted[b], sorted[a]
				}
			}
		}
		cutoff := sorted[k-1]
		for _, m := range res.Matches {
			if m.Left == i && m.Sim < cutoff-1e-4 {
				t.Fatalf("row %d: match %v below cutoff %v", i, m, cutoff)
			}
		}
	}
	if _, err := TensorTopK(ctx, left, right, 0, Options{}); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	left := randomEmbeddings(19, 10, 8)
	right := randomEmbeddings(20, 10, 8)
	if _, err := TensorJoin(ctx, left, right, 0, Options{}); err == nil {
		t.Error("tensor: expected cancellation")
	}
	if _, err := NLJ(ctx, left, right, 0, Options{}); err == nil {
		t.Error("nlj: expected cancellation")
	}
	if _, err := TensorTopK(ctx, left, right, 1, Options{}); err == nil {
		t.Error("topk: expected cancellation")
	}
	m := testModel(t, 8)
	if _, err := NaiveNLJ(ctx, m, []string{"a"}, []string{"b"}, 0, Options{}); err == nil {
		t.Error("naive: expected cancellation")
	}
}

func TestModelFailurePropagates(t *testing.T) {
	boom := errors.New("model down")
	inner := testModel(t, 8)
	bad := &model.FailingModel{Inner: inner, Match: func(s string) bool { return s == "poison" }, Err: boom}
	ctx := context.Background()
	if _, err := PrefetchNLJ(ctx, bad, []string{"ok", "poison"}, []string{"x"}, 0, Options{}); !errors.Is(err, boom) {
		t.Errorf("prefetch err = %v", err)
	}
	if _, err := NaiveNLJ(ctx, bad, []string{"ok"}, []string{"poison"}, 0, Options{}); !errors.Is(err, boom) {
		t.Errorf("naive err = %v", err)
	}
}

func TestIndexJoinRecallAgainstScan(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(21, 30, 16)
	right := randomEmbeddings(22, 500, 16)
	idx, err := BuildIndex(right, hnsw.Config{M: 16, EfConstruction: 128, EfSearch: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	exact, err := TensorTopK(ctx, left, right, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := IndexJoin(ctx, left, idx, IndexJoinCondition{K: k, MinSim: -2, Ef: 64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(approx.Matches) != 30*k {
		t.Fatalf("approx matches = %d", len(approx.Matches))
	}
	// Recall of index join vs exact scan top-k.
	exactSet := matchKeys(exact.Matches)
	hits := 0
	for _, m := range approx.Matches {
		if _, ok := exactSet[[2]int{m.Left, m.Right}]; ok {
			hits++
		}
	}
	recall := float64(hits) / float64(len(exact.Matches))
	if recall < 0.8 {
		t.Errorf("index join recall = %v, want >= 0.8", recall)
	}
}

func TestIndexJoinRangeCondition(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(23, 10, 8)
	right := randomEmbeddings(24, 200, 8)
	idx, err := BuildIndex(right, hnsw.Config{M: 16, EfConstruction: 64, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	res, err := IndexJoin(ctx, left, idx, IndexJoinCondition{K: 32, MinSim: 0.5, Ef: 64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.Sim < 0.5 {
			t.Errorf("range condition violated: %+v", m)
		}
	}
}

func TestIndexJoinFilters(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(25, 10, 8)
	right := randomEmbeddings(26, 100, 8)
	idx, err := BuildIndex(right, hnsw.Config{M: 8, EfConstruction: 64, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	lf := relational.BitmapFromSelection(10, relational.Selection{3})
	rf := relational.NewBitmap(100)
	for i := 0; i < 100; i += 3 {
		rf.Set(i)
	}
	res, err := IndexJoin(ctx, left, idx, IndexJoinCondition{K: 4, MinSim: -2, Ef: 32},
		Options{LeftFilter: lf, RightFilter: rf})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.Left != 3 {
			t.Errorf("left filter violated: %+v", m)
		}
		if m.Right%3 != 0 {
			t.Errorf("right pre-filter violated: %+v", m)
		}
	}
	if len(res.Matches) == 0 {
		t.Error("expected some filtered matches")
	}
}

func TestIndexJoinValidation(t *testing.T) {
	ctx := context.Background()
	right := randomEmbeddings(27, 50, 8)
	idx, _ := BuildIndex(right, hnsw.Config{M: 8, EfConstruction: 32, Seed: 27})
	badLeft := mat.New(2, 4)
	if _, err := IndexJoin(ctx, badLeft, idx, IndexJoinCondition{K: 1}, Options{}); err == nil {
		t.Error("expected dim error")
	}
	left := randomEmbeddings(28, 2, 8)
	if _, err := IndexJoin(ctx, left, idx, IndexJoinCondition{K: 0}, Options{}); err == nil {
		t.Error("expected k error")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := IndexJoin(cctx, left, idx, IndexJoinCondition{K: 1}, Options{}); err == nil {
		t.Error("expected cancellation")
	}
}

func TestSortMatches(t *testing.T) {
	ms := []Match{{Left: 2, Right: 1}, {Left: 1, Right: 2}, {Left: 1, Right: 1}, {Left: 0, Right: 9}}
	sortMatches(ms)
	want := []Match{{Left: 0, Right: 9}, {Left: 1, Right: 1}, {Left: 1, Right: 2}, {Left: 2, Right: 1}}
	for i := range ms {
		if ms[i].Left != want[i].Left || ms[i].Right != want[i].Right {
			t.Fatalf("sortMatches = %v", ms)
		}
	}
}

// TestGroupByLeftMatchesSortMatches: on matches as a fused scan hands
// them over — each Left's in ascending Right, Lefts interleaved block by
// block within a worker's run of rows, runs in order — the counting sort
// gives sortMatches' (Left, Right) order, and so does TensorJoin over
// several workers and blocks.
func TestGroupByLeftMatchesSortMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 50; trial++ {
		nr, ns := 1+rng.Intn(40), 1+rng.Intn(200)
		var ms []Match
		for lo, hi := 0, 0; lo < nr; lo = hi { // one worker's rows
			hi = min(nr, lo+1+rng.Intn(9))
			for sLo := 0; sLo < ns; sLo += 16 { // its S blocks
				for i := lo; i < hi; i++ {
					for j := sLo; j < min(ns, sLo+16); j++ {
						if rng.Intn(4) == 0 {
							ms = append(ms, Match{Left: i, Right: j, Sim: rng.Float32()})
						}
					}
				}
			}
		}
		want := slices.Clone(ms)
		sortMatches(want)
		cut := rng.Intn(len(ms) + 1) // as two workers' parts
		if got := groupByLeft(nr, ms[:cut], ms[cut:]); !slices.Equal(got, want) {
			t.Fatalf("trial %d: groupByLeft differs from sortMatches", trial)
		}
	}
	left, right := randomEmbeddings(151, 300, 40), randomEmbeddings(152, 200, 40)
	res, err := TensorJoin(context.Background(), left, right, 0.1, Options{Threads: 3, BatchCols: 32, Kernel: vec.KernelSIMD})
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(res.Matches)
	sortMatches(want)
	if len(want) == 0 || !slices.Equal(res.Matches, want) {
		t.Fatalf("TensorJoin's %d matches are not in (Left, Right) order", len(want))
	}
}

func TestEmptyInputs(t *testing.T) {
	ctx := context.Background()
	empty := mat.New(0, 8)
	right := randomEmbeddings(29, 10, 8)
	for label, f := range map[string]func() (*Result, error){
		"nlj-empty-left":     func() (*Result, error) { return NLJ(ctx, empty, right, 0, Options{}) },
		"nlj-empty-right":    func() (*Result, error) { return NLJ(ctx, right, empty, 0, Options{}) },
		"tensor-empty-left":  func() (*Result, error) { return TensorJoin(ctx, empty, right, 0, Options{}) },
		"tensor-empty-right": func() (*Result, error) { return TensorJoin(ctx, right, empty, 0, Options{}) },
	} {
		res, err := f()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(res.Matches) != 0 {
			t.Errorf("%s: matches = %v", label, res.Matches)
		}
	}
}

// TestEndToEndStringJoin is the integration path: strings -> model ->
// prefetch -> tensor join -> decode matches, the full Figure 5 pipeline.
func TestEndToEndStringJoin(t *testing.T) {
	m := testModel(t, 64)
	ctx := context.Background()
	left := []string{"barbecue", "database", "clothes"}
	right := []string{"barbecues", "databases", "clothing", "giraffe"}

	lm, err := Embed(ctx, m, left)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Embed(ctx, m, right)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TensorJoin(ctx, lm, rm, 0.55, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, match := range res.Matches {
		got[left[match.Left]] = right[match.Right]
	}
	if got["barbecue"] != "barbecues" {
		t.Errorf("barbecue matched %q", got["barbecue"])
	}
	if got["database"] != "databases" {
		t.Errorf("database matched %q", got["database"])
	}
	for _, match := range res.Matches {
		if right[match.Right] == "giraffe" {
			t.Errorf("giraffe should not match anything: %+v", match)
		}
	}
}

// TestFusedScanConsumersMatchMaterializedScan holds TensorJoin and
// TensorTopK to what a scan of the stored product returns — same pairs,
// same order, same similarity bits — with filters on both sides, tied
// right rows (the earlier one wins a top-k place), a right row whose
// similarities are NaN (never a match, never a candidate), right sides
// that end inside a 16-column panel, and more workers than one.
func TestFusedScanConsumersMatchMaterializedScan(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(31, 150, 12)
	right := randomEmbeddings(32, 70, 12)
	copy(right.Row(40), right.Row(4))
	copy(right.Row(69), right.Row(4))
	for k := range right.Row(9) {
		right.Row(9)[k] = float32(math.NaN())
	}
	lf, rf := relational.NewBitmap(150), relational.NewBitmap(70)
	for i := 0; i < 150; i++ {
		if i%5 != 1 {
			lf.Set(i)
		}
	}
	for j := 0; j < 70; j++ {
		if j%7 != 3 {
			rf.Set(j)
		}
	}
	for _, empty := range [][2]*mat.Matrix{{mat.New(0, 12), right}, {left, mat.New(0, 12)}} {
		tj, err := TensorJoin(ctx, empty[0], empty[1], 0, Options{})
		tk, err2 := TensorTopK(ctx, empty[0], empty[1], 2, Options{})
		if err != nil || err2 != nil || len(tj.Matches) != 0 || len(tk.Matches) != 0 {
			t.Fatalf("empty input: %v %v, %d and %d matches", err, err2, len(tj.Matches), len(tk.Matches))
		}
	}
	full := mat.New(left.Rows(), right.Rows())
	if err := mat.MulTransposeInto(full, left, right, mat.GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}); err != nil {
		t.Fatal(err)
	}
	const threshold, k = 0.3, 3
	for _, filtered := range []bool{false, true} {
		var wantJoin []Match
		var lfw, rfw *relational.Bitmap
		if filtered {
			lfw, rfw = lf, rf
		}
		for i := 0; i < left.Rows(); i++ {
			if filtered && !lf.Get(i) {
				continue
			}
			for j, sim := range full.Row(i) {
				if (!filtered || rf.Get(j)) && sim >= threshold {
					wantJoin = append(wantJoin, Match{Left: i, Right: j, Sim: sim})
				}
			}
		}
		wantTopK := bruteTopK(full, k, lfw, rfw)
		for _, opts := range []Options{
			{Threads: 1},
			{Threads: 1, Kernel: vec.KernelSIMD},
			{Threads: 3, Kernel: vec.KernelSIMD, BatchCols: 16},
		} {
			if filtered {
				opts.LeftFilter, opts.RightFilter = lf, rf
			}
			label := fmt.Sprintf("filtered=%v threads=%d kernel=%v", filtered, opts.Threads, opts.Kernel)
			tj, err := TensorJoin(ctx, left, right, threshold, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMatchList(t, label+" join", tj.Matches, wantJoin)
			tk, err := TensorTopK(ctx, left, right, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMatchList(t, label+" top-k", tk.Matches, wantTopK)
		}
	}
}

// TestFusedScanSkipsFilteredStrips pins what a pushed-down left predicate
// saves: a 4-row strip it excludes entirely is not computed (on every
// build), a strip it excludes in part is, and the matches are those of
// the unfiltered scan minus the excluded rows either way. Comparisons
// stays |L| x |R|: pairs decided, not work done.
func TestFusedScanSkipsFilteredStrips(t *testing.T) {
	ctx := context.Background()
	const nl, nr, dim = 40, 48, 100
	left, right := randomEmbeddings(33, nl, dim), randomEmbeddings(34, nr, dim)
	all, err := TensorJoin(ctx, left, right, 0.1, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	rowSteps := int64(nr / 16 * dim) // one left row against every right panel
	for _, tc := range []struct {
		name       string
		keep       func(i int) bool
		wholeStrip int64 // left rows in strips the filter excludes entirely
	}{
		{"none excluded", func(int) bool { return true }, 0},
		{"whole strips", func(i int) bool { return i < 8 || i >= 24 }, 16},
		{"mixed strips", func(i int) bool { return i%4 != 1 }, 0},
		{"whole and mixed", func(i int) bool { return i >= 12 && i%8 != 0 }, 12},
		{"all excluded", func(int) bool { return false }, nl},
	} {
		lf := relational.NewBitmap(nl)
		var want []Match
		for i := 0; i < nl; i++ {
			if tc.keep(i) {
				lf.Set(i)
			}
		}
		for _, m := range all.Matches {
			if tc.keep(m.Left) {
				want = append(want, m)
			}
		}
		for _, kernel := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
			label := fmt.Sprintf("%s kernel=%v", tc.name, kernel)
			res, err := TensorJoin(ctx, left, right, 0.1, Options{Threads: 1, Kernel: kernel, LeftFilter: lf})
			if err != nil {
				t.Fatal(err)
			}
			sameMatchList(t, label, res.Matches, want)
			st := res.Stats
			if st.Comparisons != nl*nr || st.KSteps != nl*rowSteps {
				t.Errorf("%s: %d comparisons over %d k-steps, want %d over %d", label, st.Comparisons, st.KSteps, nl*nr, nl*rowSteps)
			}
			// The portable tile skips exactly the excluded strips; the
			// assembly tile may stop early on top of that.
			if min := tc.wholeStrip * rowSteps; st.KStepsSkipped < min || st.KStepsSkipped > st.KSteps ||
				kernel == vec.KernelScalar && st.KStepsSkipped != min {
				t.Errorf("%s: skipped %d of %d k-steps, want at least %d", label, st.KStepsSkipped, st.KSteps, min)
			}
		}
	}
}

// bruteTopK is TensorTopK's answer read off the full product: per left
// row lf keeps (all if nil), the k best non-NaN cells of the columns rf
// keeps, ties to the lower column, in (Left, Right) order.
func bruteTopK(full *mat.Matrix, k int, lf, rf *relational.Bitmap) []Match {
	var out []Match
	for i := 0; i < full.Rows(); i++ {
		if lf != nil && !lf.Get(i) {
			continue
		}
		var best []Match
		for j, sim := range full.Row(i) {
			if rf != nil && !rf.Get(j) || sim != sim {
				continue
			}
			best = append(best, Match{Left: i, Right: j, Sim: sim})
		}
		sort.SliceStable(best, func(a, b int) bool { return best[a].Sim > best[b].Sim })
		best = best[:min(k, len(best))]
		sort.Slice(best, func(a, b int) bool { return best[a].Right < best[b].Right })
		out = append(out, best...)
	}
	return out
}

// TestTensorTopKSeedMatchesBruteForce holds TensorTopK, whose first 32
// right rows seed each row's bound before the scan, to the full
// product's answer bit for bit: right sides shorter than, equal to and
// longer than the seed, k below and above it and above |right|, ties
// that straddle the seed's edge, NaN cells, both filters, and a long
// left side.
func TestTensorTopKSeedMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(97))
	nan := float32(math.NaN())
	for _, ns := range []int{1, 5, 31, 32, 33, 47, 64, 100, 300} {
		for _, k := range []int{1, 3, 32, 33, 40, 400} {
			nl := 21
			if ns == 300 {
				nl = 521
			}
			left, right := randomEmbeddings(rng.Int63(), nl, 40), randomEmbeddings(rng.Int63(), ns, 40)
			// Row 3's twins sit on both sides of the seed's edge, and one
			// right row's and one left row's cells are all NaN.
			for _, j := range []int{31, 32, 33, 70} {
				if j < ns && ns > 3 {
					copy(right.Row(j), right.Row(3))
				}
			}
			if ns > 10 {
				right.Row(10)[7] = nan
			}
			left.Row(5)[0] = nan
			full := mat.New(left.Rows(), right.Rows())
			if err := mat.MulTransposeInto(full, left, right, mat.GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}); err != nil {
				t.Fatal(err)
			}
			lf, rf := relational.NewBitmap(left.Rows()), relational.NewBitmap(ns)
			for i := 0; i < left.Rows(); i++ {
				if i%4 != 2 {
					lf.Set(i)
				}
			}
			for j := 0; j < ns; j++ {
				if j%3 != 0 {
					rf.Set(j)
				}
			}
			for _, filtered := range []bool{false, true} {
				opts := Options{Threads: 1 + rng.Intn(3), Kernel: vec.Kernel(rng.Intn(2))}
				var lfw, rfw *relational.Bitmap
				if filtered {
					opts.LeftFilter, opts.RightFilter = lf, rf
					lfw, rfw = lf, rf
				}
				res, err := TensorTopK(ctx, left, right, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameMatchList(t, fmt.Sprintf("|right| %d, k %d, filtered %v", ns, k, filtered), res.Matches, bruteTopK(full, k, lfw, rfw))
				if st := res.Stats; st.Comparisons != int64(nl*ns) || st.KSteps != int64(nl*((ns+15)/16)*40) {
					t.Errorf("|right| %d: %d comparisons over %d k-steps", ns, st.Comparisons, st.KSteps)
				}
			}
		}
	}
}

// TestTensorTopKCandidatesBitIdentical holds TensorTopK on the int8
// candidate path (mat.TopKCandidatesOn) to its scan path, which hosts
// without AVX-512 VNNI and shapes below the int8 filter's floors run,
// and to the full product's answer: same pairs, same order, same
// similarity bits. It covers k of 1, 3, 8 and more than |right|, tied
// right rows, rows the int8 estimates do not cover (NaN, +Inf and -Inf
// components, beyond 2^40, below 2^-40, denormal) and zero rows on both
// sides, both filters, d of 32, 100 and 1024, and shapes on both sides
// of the floors (64 left rows a worker, 128 right rows). On a host
// without VNNI it compares the scan path with itself and the product.
func TestTensorTopKCandidatesBitIdentical(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(107))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	odd := func(row []float32, n int) {
		switch n % 8 {
		case 0:
			row[len(row)/2] = nan
		case 1:
			row[1] = inf
		case 2:
			row[2] = -inf
		case 3:
			for k := range row {
				row[k] *= 0x1p41
			}
		case 4:
			for k := range row {
				row[k] *= 0x1p-45
			}
		case 5:
			for k := range row {
				row[k] = 0x1p-140 * float32(k%3)
			}
		case 6:
			clear(row)
		}
	}
	ran := 0
	for _, c := range []struct{ nl, nr, d, threads int }{
		{63, 200, 100, 1}, {64, 200, 100, 1}, {65, 127, 100, 1}, {65, 128, 100, 1}, {70, 129, 32, 1},
		{128, 300, 100, 2}, {130, 300, 32, 2}, {64, 140, 1024, 1},
	} {
		left, right := randomEmbeddings(rng.Int63(), c.nl, c.d), randomEmbeddings(rng.Int63(), c.nr, c.d)
		for i := 5; i < c.nl; i += 9 {
			odd(left.Row(i), i/9)
		}
		for j := 3; j < c.nr; j += 11 {
			odd(right.Row(j), j/11)
		}
		copy(right.Row(c.nr-1), right.Row(0)) // ties: the earlier row wins
		copy(right.Row(c.nr/2), right.Row(0))
		copy(left.Row(c.nl-1), left.Row(1))
		full := mat.New(c.nl, c.nr)
		if err := mat.MulTransposeInto(full, left, right, mat.GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}); err != nil {
			t.Fatal(err)
		}
		lf, rf := relational.NewBitmap(c.nl), relational.NewBitmap(c.nr)
		for i := 0; i < c.nl; i++ {
			if i%6 != 4 {
				lf.Set(i)
			}
		}
		for j := 0; j < c.nr; j++ {
			if j%5 != 2 {
				rf.Set(j)
			}
		}
		for _, k := range []int{1, 3, 8, c.nr + 1} {
			for _, filtered := range []bool{false, true} {
				opts := Options{Threads: c.threads, Kernel: vec.KernelSIMD}
				var lfw, rfw *relational.Bitmap
				if filtered {
					opts.LeftFilter, opts.RightFilter = lf, rf
					lfw, rfw = lf, rf
				}
				label := fmt.Sprintf("%dx%d of %d, k %d, filtered %v", c.nl, c.nr, c.d, k, filtered)
				got, err := TensorTopK(ctx, left, right, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				kk := min(k, c.nr)
				heaps, fill := make([]Match, c.nl*kk), make([]int, c.nl)
				if _, err := topKByScan(ctx, left, right, kk, opts, heaps, fill); err != nil {
					t.Fatal(err)
				}
				want := bruteTopK(full, k, lfw, rfw)
				sameMatchList(t, label+" scan path", topKMatches(heaps, fill, kk), want)
				sameMatchList(t, label, got.Matches, want)
				if mat.TopKCandidatesOn(c.nl, c.nr, c.d, kk, mat.GemmOptions{Threads: c.threads, Kernel: vec.KernelSIMD}) {
					ran++
					if st := got.Stats; st.Comparisons != int64(c.nl*c.nr) || st.KSteps != int64(c.nl*((c.nr+15)/16)*c.d) || st.KStepsSkipped < 0 || st.KStepsSkipped > st.KSteps {
						t.Errorf("%s: %d comparisons, %d of %d k-steps skipped", label, st.Comparisons, st.KStepsSkipped, st.KSteps)
					}
				}
			}
		}
	}
	t.Logf("%d of the cases ran the int8 candidate path", ran)
}

func sameMatchList(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for n := range want {
		if got[n].Left != want[n].Left || got[n].Right != want[n].Right ||
			math.Float32bits(got[n].Sim) != math.Float32bits(want[n].Sim) {
			t.Fatalf("%s: match %d is %+v, want %+v", label, n, got[n], want[n])
		}
	}
}

// BenchmarkTensorTopK times top-3 on the serving shape, 1024 x 1024
// unit-norm rows of 100, one thread, in ns per compared pair (the layer
// that core.topk_ns_pair measures under the server), and the cells the
// candidate top-k computed in F32 a row (rescored/row): on random rows;
// on rows with 300 planted near neighbours (plantedEmbeddings), a few
// high cells among many low ones; and on served ones (servedEmbeddings),
// two-word phrases and their one-edit variants through the hash
// embedder, whose rows' 3rd best sits near 0.5 (kth_p50) as on the
// repo benchmark's scan_warm.
func BenchmarkTensorTopK(b *testing.B) {
	random := [2]*mat.Matrix{randomEmbeddings(1, 1024, 100), randomEmbeddings(2, 1024, 100)}
	left, right := plantedEmbeddings(1024, 100, 300)
	servedL, servedR := servedEmbeddings(b, 1024)
	for _, bc := range []struct {
		name string
		rows [2]*mat.Matrix
	}{{"random", random}, {"planted", [2]*mat.Matrix{left, right}}, {"served", [2]*mat.Matrix{servedL, servedR}}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{Threads: 1, Kernel: vec.KernelSIMD}
			var res *Result
			for b.Loop() {
				var err error
				if res, err = TensorTopK(context.Background(), bc.rows[0], bc.rows[1], 3, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(1024*1024), "ns/pair")
			b.ReportMetric(float64(res.Stats.Rescored)/1024, "rescored/row")
			kth := make([]float64, 1024)
			for _, m := range res.Matches {
				if kth[m.Left] == 0 || float64(m.Sim) < kth[m.Left] {
					kth[m.Left] = float64(m.Sim)
				}
			}
			slices.Sort(kth)
			b.ReportMetric(kth[len(kth)/2], "kth_p50")
		})
	}
}

// servedEmbeddings returns two n-row tables as the repo benchmark's
// scan_warm draws them, embedded by model.NewHashEmbedder(100): n
// distinct two-word phrases over 400 made-up words, and each side's rows
// a variant of a random phrase (as is, pluralized, one letter changed,
// or one word more).
func servedEmbeddings(b *testing.B, n int) (left, right *mat.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	syllables := []string{"ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "ba", "de", "fu", "go", "hi", "jo", "pe", "si"}
	var vocab []string
	for seen := map[string]bool{}; len(vocab) < 400; {
		var w strings.Builder
		for range 3 + rng.Intn(2) {
			w.WriteString(syllables[rng.Intn(len(syllables))])
		}
		if !seen[w.String()] {
			seen[w.String()] = true
			vocab = append(vocab, w.String())
		}
	}
	var bases []string
	for seen := map[string]bool{}; len(bases) < n; {
		if p := vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]; !seen[p] {
			seen[p] = true
			bases = append(bases, p)
		}
	}
	m, err := model.NewHashEmbedder(100)
	if err != nil {
		b.Fatal(err)
	}
	side := func() *mat.Matrix {
		texts := make([]string, n)
		for i := range texts {
			words := strings.Fields(bases[rng.Intn(n)])
			w := rng.Intn(len(words))
			switch rng.Intn(4) {
			case 1:
				words[w] += "s"
			case 2:
				c := []byte(words[w])
				pos := 1 + rng.Intn(len(c)-2)
				c[pos] = 'a' + (c[pos]-'a'+1+byte(rng.Intn(24)))%26
				words[w] = string(c)
			case 3:
				words = append(words, vocab[rng.Intn(len(vocab))])
			}
			texts[i] = strings.Join(words, " ")
		}
		e, err := Embed(context.Background(), m, texts)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	return side(), side()
}

// plantedEmbeddings returns two n x dim matrices of random unit rows in
// which pairs random pairs (i, j) are near neighbours, right row j within
// cosine ~0.86-0.96 of left row i.
func plantedEmbeddings(n, dim, pairs int) (left, right *mat.Matrix) {
	left, right = randomEmbeddings(1, n, dim), randomEmbeddings(2, n, dim)
	rng := rand.New(rand.NewSource(3))
	for range pairs {
		l, r := left.Row(rng.Intn(n)), right.Row(rng.Intn(n))
		eps := float32(0.3 + 0.3*rng.Float64())
		for k := range r {
			r[k] = l[k] + eps*r[k]
		}
		vec.Normalize(r)
	}
	return left, right
}
