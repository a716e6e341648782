package exec

import (
	"context"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/mat"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

func testTable(t *testing.T, n int) *relational.Table {
	t.Helper()
	words := make(relational.StringColumn, n)
	nums := make(relational.Int64Column, n)
	for i := 0; i < n; i++ {
		words[i] = string(rune('a' + i%26))
		nums[i] = int64(i)
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "word", Type: relational.String}, {Name: "n", Type: relational.Int64}},
		[]relational.Column{words, nums},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestScanBlocksAndPushdown(t *testing.T) {
	tbl := testTable(t, 10)
	s := &Scan{
		Table:     tbl,
		Name:      "T",
		Preds:     []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(6)}},
		BlockRows: 3,
	}
	ctx := context.Background()
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// The full post-predicate selection is resolved at Open, before any
	// block is pulled: rows 0..6 survive n <= 6.
	if got := s.Rows(); len(got) != 7 || got[0] != 0 || got[6] != 6 {
		t.Fatalf("Rows() = %v, want 0..6", got)
	}
	var sizes []int
	var rows []int
	for {
		b, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, b.Len())
		rows = append(rows, b.Rows...)
	}
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("block sizes = %v, want [3 3 1]", sizes)
	}
	for i, r := range rows {
		if r != i {
			t.Fatalf("row stream %v, want ascending 0..6", rows)
		}
	}
	st := s.Stats()
	if st.Name != "scan" || st.RowsOut != 7 || st.Batches != 3 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScanBatchesAreMutationSafe(t *testing.T) {
	// Downstream operators compact batches in place; the scan must hand
	// out copies so its resolved selection (used for LeftRows) survives.
	tbl := testTable(t, 6)
	s := &Scan{Table: tbl, BlockRows: 3}
	ctx := context.Background()
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b, err := s.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b.Rows[0] = 999
	if got := s.Rows(); got[0] != 0 {
		t.Fatalf("mutating a batch corrupted the scan selection: %v", got)
	}
	b2, err := s.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Rows[0] != 3 {
		t.Fatalf("second block starts at %d, want 3", b2.Rows[0])
	}
}

func TestRowFilterCompacts(t *testing.T) {
	tbl := testTable(t, 9)
	s := &Scan{Table: tbl, BlockRows: 4}
	f := &RowFilter{
		Input: s,
		Table: tbl,
		Preds: []relational.Pred{{Column: "n", Op: relational.LE, Value: int64(5)}},
	}
	ctx := context.Background()
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var rows []int
	for {
		b, err := f.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows = append(rows, b.Rows...)
	}
	if len(rows) != 6 {
		t.Fatalf("filtered rows = %v, want 0..5", rows)
	}
	for i, r := range rows {
		if r != i {
			t.Fatalf("filtered rows = %v, want 0..5", rows)
		}
	}
	st := f.Stats()
	if st.RowsIn != 9 || st.RowsOut != 6 {
		t.Errorf("stats = %+v", st)
	}
	// The Filter helper applies the same bitmap to a full selection (used
	// to report complete LeftRows even when a LIMIT stops the stream).
	if sel := f.Filter(relational.All(9)); len(sel) != 6 || sel[5] != 5 {
		t.Errorf("Filter(All) = %v", sel)
	}
}

// vecSource feeds prepared batches and counts how often it is pulled.
type vecSource struct {
	batches []*Batch
	pos     int
	pulls   int
	st      OpStats
}

func (s *vecSource) Open(ctx context.Context) error { return nil }

func (s *vecSource) Next(ctx context.Context) (*Batch, error) {
	s.pulls++
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

func (s *vecSource) Close() error   { return nil }
func (s *vecSource) Stats() OpStats { return s.st }

// embBatch builds a batch whose embedding rows are the given unit vectors.
func embBatch(rows []int, vecs [][]float32) *Batch {
	m := mat.New(len(vecs), len(vecs[0]))
	for i, v := range vecs {
		copy(m.Row(i), v)
	}
	return &Batch{Rows: rows, Emb: m}
}

func TestSemFilterFusion(t *testing.T) {
	// Query [1,0]; rows 0 and 2 align with it, row 1 is orthogonal, row 3
	// is at cos 0.6. Threshold 0.5 keeps 0, 2, 3.
	src := &vecSource{batches: []*Batch{
		embBatch([]int{0, 1, 2, 3}, [][]float32{{1, 0}, {0, 1}, {1, 0}, {0.6, 0.8}}),
		embBatch([]int{4, 5}, [][]float32{{0, 1}, {0, -1}}), // fully rejected block
	}}
	f := &SemFilter{Input: src, Query: []float32{1, 0}, Threshold: 0.5, Kernel: vec.KernelScalar}
	// The probe consumes the filter's survivors directly: the same block
	// embeddings feed both, so rejected rows are never probed.
	build := mat.New(1, 2)
	copy(build.Row(0), []float32{1, 0})
	p := &ThresholdProbe{Input: f, Threshold: 0.9, Opts: core.Options{Kernel: vec.KernelScalar, Threads: 1}}
	p.Build, p.BuildRows = build, []int{7}

	ctx := context.Background()
	if err := p.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var matches []core.Match
	for {
		b, err := p.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		matches = append(matches, b.Matches...)
	}
	fs := f.Stats()
	if fs.RowsIn != 6 || fs.RowsOut != 3 || fs.EarlyOutRows != 3 {
		t.Errorf("semfilter stats = %+v, want 6 in / 3 out / 3 early-out", fs)
	}
	// Fusion contract: the probe saw exactly the filter's survivors.
	if ps := p.Stats(); ps.RowsIn != fs.RowsOut {
		t.Errorf("probe saw %d rows, filter emitted %d — rejected rows reached the probe", ps.RowsIn, fs.RowsOut)
	}
	// Rows 0 and 2 match the build vector at sim 1; row 3 is below 0.9.
	want := []core.Match{{Left: 0, Right: 7, Sim: 1}, {Left: 2, Right: 7, Sim: 1}}
	if len(matches) != len(want) {
		t.Fatalf("matches = %v, want %v", matches, want)
	}
	for i := range want {
		if matches[i].Left != want[i].Left || matches[i].Right != want[i].Right {
			t.Fatalf("matches = %v, want %v", matches, want)
		}
	}
}

// matchSource emits batches of pre-made matches, counting pulls, so a
// LIMIT's short-circuit (not pulling upstream once satisfied) is provable.
type matchSource struct {
	perBatch int
	next     int
	pulls    int
	st       OpStats
}

func (s *matchSource) Open(ctx context.Context) error { return nil }

func (s *matchSource) Next(ctx context.Context) (*Batch, error) {
	s.pulls++
	b := &Batch{}
	for i := 0; i < s.perBatch; i++ {
		b.Matches = append(b.Matches, core.Match{Left: s.next, Right: 0, Sim: 1})
		s.next++
	}
	return b, nil
}

func (s *matchSource) Close() error   { return nil }
func (s *matchSource) Stats() OpStats { return s.st }

func TestLimitShortCircuits(t *testing.T) {
	// An endless source: only the limit's refusal to pull can end this.
	src := &matchSource{perBatch: 4}
	l := &Limit{Input: src, N: 10}
	ctx := context.Background()
	matches, err := drain(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 10 {
		t.Fatalf("drained %d matches, want 10", len(matches))
	}
	for i, m := range matches {
		if m.Left != i {
			t.Fatalf("match %d = %+v, want first-N in order", i, m)
		}
	}
	if !l.Truncated {
		t.Error("limit hit on an endless stream must report Truncated")
	}
	// 10 matches at 4 per batch: exactly 3 pulls, then the limit returns
	// EOS on its own without touching the source again.
	if src.pulls != 3 {
		t.Errorf("source pulled %d times, want 3", src.pulls)
	}
	if _, err := l.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if src.pulls != 3 {
		t.Errorf("post-EOS Next pulled the source (pulls=%d)", src.pulls)
	}
	st := l.Stats()
	if st.RowsOut != 10 || st.EarlyOutRows != 2 {
		t.Errorf("stats = %+v, want 10 out / 2 early-out (third batch trimmed)", st)
	}
}

func TestThresholdProbeOrderedWithinBlock(t *testing.T) {
	// Matches within a block must come out sorted by (Left, Right) so
	// block-ascending concatenation is ordered whatever the block size —
	// the property LIMIT's "first N" semantics rest on.
	build := mat.New(2, 2)
	copy(build.Row(0), []float32{1, 0})
	copy(build.Row(1), []float32{0.8, 0.6})
	src := &vecSource{batches: []*Batch{
		embBatch([]int{3, 5}, [][]float32{{0.8, 0.6}, {1, 0}}),
	}}
	p := &ThresholdProbe{Input: src, Threshold: 0.7, Opts: core.Options{Kernel: vec.KernelScalar, Threads: 1}}
	p.Build, p.BuildRows = build, []int{0, 1}
	matches, err := drain(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(matches); i++ {
		a, b := matches[i-1], matches[i]
		if a.Left > b.Left || (a.Left == b.Left && a.Right >= b.Right) {
			t.Fatalf("matches not ordered by (Left, Right): %v", matches)
		}
	}
	if len(matches) != 4 {
		t.Fatalf("matches = %v, want all 4 pairs above 0.7", matches)
	}
}

// drain pulls op to end of stream, concatenating emitted matches. The
// batch-local match slices are appended, never aliased, so the result
// survives operator Close.
func drain(ctx context.Context, op Operator) ([]core.Match, error) {
	var out []core.Match
	for {
		b, err := op.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.Matches...)
	}
}
