package plan

import (
	"context"
	"maps"
	"testing"

	"ejoin/internal/cost"
	"ejoin/internal/ivf"
	"ejoin/internal/mat"
	"ejoin/internal/relational"
)

// IVF-Flat through the planner: any vindex.Index implementation must be
// usable wherever an HNSW index is.

// ivfOver builds a two-list IVF index over m's rows.
func ivfOver(t *testing.T, m *mat.Matrix) *ivf.Index {
	t.Helper()
	idx, err := ivf.Build(m, ivf.Config{NLists: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != m.Rows() {
		t.Fatalf("index len = %d, want %d", idx.Len(), m.Rows())
	}
	return idx
}

// runIndexTop1 runs q as a forced index-strategy top-1 join. The executor
// probes both lists, so the answer on this tiny input is exact.
func runIndexTop1(t *testing.T, q Query) *ExecResult {
	t.Helper()
	q.Join = JoinSpec{Kind: TopKJoin, K: 1, Threshold: -2}
	s := cost.StrategyIndex
	opt := NewOptimizer()
	opt.ForceStrategy = &s
	res, pl, err := Run(context.Background(), q, &Executor{IndexEf: 2, Store: testStore()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Strategy != cost.StrategyIndex {
		t.Errorf("strategy = %v", pl.Strategy)
	}
	return res
}

// matchedWords maps each matched left word to its right term.
func matchedWords(t *testing.T, q Query, res *ExecResult) map[string]string {
	t.Helper()
	lw, _ := q.Left.Table.Strings("word")
	rw, _ := q.Right.Table.Strings("term")
	got := map[string]string{}
	for _, m := range res.Matches {
		got[lw[m.Left]] = rw[m.Right]
	}
	return got
}

var bestTerm = map[string]string{
	"barbecue": "barbecues", "database": "databases", "clothes": "clothing", "quantum": "quantums",
}

// TestRunQueryWithIVFIndex drives a declarative query through the IVF
// access path over the right side's text column.
func TestRunQueryWithIVFIndex(t *testing.T) {
	q := testQuery(t)
	q.Right.Index = ivfOver(t, embedColumn(t, q.Model, q.Right.Table, "term"))
	res := runIndexTop1(t, q)
	if got := matchedWords(t, q, res); !maps.Equal(got, bestTerm) {
		t.Errorf("matches = %v, want %v", got, bestTerm)
	}
}

// TestIVFWithPreFilterThroughPlanner: relational predicates become IVF
// pre-filters (applied before distance computations).
func TestIVFWithPreFilterThroughPlanner(t *testing.T) {
	q := testQuery(t)
	q.Right.Index = ivfOver(t, embedColumn(t, q.Model, q.Right.Table, "term"))
	q.Right.Predicates = []relational.Pred{{Column: "score", Op: relational.LE, Value: int64(2)}}
	res := runIndexTop1(t, q)
	if len(res.Matches) != q.Left.Table.NumRows() {
		t.Errorf("matches = %v, want one per left row", res.Matches)
	}
	for _, m := range res.Matches {
		if m.Right > 1 {
			t.Errorf("pre-filter violated (score<=2 keeps rows 0,1): %+v", m)
		}
	}
}

// TestBuildIVFIndexVectorColumn indexes a precomputed vector column and
// probes it with the other side's text embedded at query time.
func TestBuildIVFIndexVectorColumn(t *testing.T) {
	q := testQuery(t)
	em := embedColumn(t, q.Model, q.Right.Table, "term")
	vc, err := relational.NewVectorColumn(rowsOf(em))
	if err != nil {
		t.Fatal(err)
	}
	if q.Right.Table, err = q.Right.Table.WithColumn("emb", vc); err != nil {
		t.Fatal(err)
	}
	q.Right.TextColumn, q.Right.VectorColumn = "", "emb"
	q.Right.Index = ivfOver(t, em)
	res := runIndexTop1(t, q)
	if got := matchedWords(t, q, res); !maps.Equal(got, bestTerm) {
		t.Errorf("matches = %v, want %v", got, bestTerm)
	}
}
