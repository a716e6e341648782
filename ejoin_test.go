// Package ejoin's root directory holds no library code: a query enters
// through service.Engine (cmd/ejserve, cmd/ejsql). These tests compose the
// internal packages end to end the way those front ends and the benchmark
// harness do — embed, join, plan, index, materialize — so a change that
// breaks the composition fails here even when every package passes alone.
package ejoin

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/hnsw"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// stringMatch is one matched pair of input strings.
type stringMatch struct {
	Left, Right string
	Sim         float32
}

// embedBoth prefetches the embeddings of both inputs, once per string.
func embedBoth(ctx context.Context, m model.Model, left, right []string) (lm, rm *mat.Matrix, err error) {
	if lm, err = core.Embed(ctx, m, left); err != nil {
		return nil, nil, fmt.Errorf("embedding left input: %w", err)
	}
	if rm, err = core.Embed(ctx, m, right); err != nil {
		return nil, nil, fmt.Errorf("embedding right input: %w", err)
	}
	return lm, rm, nil
}

// joinStrings is the prefetch + tensor pipeline a SIM(l, r) >= threshold
// query lowers to, over two string slices.
func joinStrings(ctx context.Context, m model.Model, left, right []string, threshold float32) ([]stringMatch, error) {
	lm, rm, err := embedBoth(ctx, m, left, right)
	if err != nil {
		return nil, err
	}
	res, err := core.TensorJoin(ctx, lm, rm, threshold, core.Options{Kernel: vec.DefaultKernel()})
	if err != nil {
		return nil, err
	}
	return toStringMatches(left, right, res), nil
}

func toStringMatches(left, right []string, res *core.Result) []stringMatch {
	out := make([]stringMatch, len(res.Matches))
	for i, m := range res.Matches {
		out[i] = stringMatch{Left: left[m.Left], Right: right[m.Right], Sim: m.Sim}
	}
	return out
}

func hashModel(t *testing.T, dim int, opts ...model.HashEmbedderOption) model.Model {
	t.Helper()
	m, err := model.NewHashEmbedder(dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestJoinStrings(t *testing.T) {
	m := hashModel(t, 64)
	matches, err := joinStrings(context.Background(), m,
		[]string{"barbecue", "database", "giraffe"},
		[]string{"barbecues", "databases", "quantum"},
		0.6)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, mm := range matches {
		got[mm.Left] = mm.Right
		if mm.Sim < 0.6 {
			t.Errorf("similarity below threshold: %+v", mm)
		}
	}
	if got["barbecue"] != "barbecues" || got["database"] != "databases" {
		t.Errorf("matches = %v", got)
	}
	if _, ok := got["giraffe"]; ok {
		t.Error("giraffe should not match")
	}
}

func TestJoinStringsErrors(t *testing.T) {
	m := hashModel(t, 16)
	ctx := context.Background()
	if _, err := joinStrings(ctx, m, []string{""}, []string{"x"}, 0.5); err == nil {
		t.Error("expected error for empty left string")
	}
	if _, err := joinStrings(ctx, m, []string{"x"}, []string{""}, 0.5); err == nil {
		t.Error("expected error for empty right string")
	}
}

func TestTopKStrings(t *testing.T) {
	m := hashModel(t, 64)
	left := []string{"clothes"}
	right := []string{"clothing", "giraffe", "clothings", "quantum"}
	ctx := context.Background()
	lm, rm, err := embedBoth(ctx, m, left, right)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TensorTopK(ctx, lm, rm, 2, core.Options{Kernel: vec.DefaultKernel()})
	if err != nil {
		t.Fatal(err)
	}
	matches := toStringMatches(left, right, res)
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	for _, mm := range matches {
		if mm.Right == "giraffe" || mm.Right == "quantum" {
			t.Errorf("unrelated word in top-2: %+v", mm)
		}
	}
}

func TestSynonymModel(t *testing.T) {
	m := hashModel(t, 64, model.WithSynonyms(map[string][]string{
		"grill": {"barbecue", "bbq"},
	}))
	matches, err := joinStrings(context.Background(), m,
		[]string{"barbecue"}, []string{"bbq"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Errorf("synonyms should match: %v", matches)
	}
}

func TestRandomModel(t *testing.T) {
	m, err := model.NewRandomEmbedder(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := joinStrings(context.Background(), m,
		[]string{"a", "b"}, []string{"a", "c"}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Only the exact duplicate survives a 0.99 threshold under random
	// embeddings.
	if len(matches) != 1 || matches[0].Left != "a" || matches[0].Right != "a" {
		t.Errorf("matches = %v", matches)
	}
}

func queryFixture(t *testing.T) plan.Query {
	t.Helper()
	base := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	left, err := relational.NewTable(
		relational.Schema{{Name: "word", Type: relational.String}, {Name: "taken", Type: relational.Time}},
		[]relational.Column{
			relational.StringColumn{"barbecue", "database", "clothes"},
			relational.TimeColumn{base, base.AddDate(0, 1, 0), base.AddDate(0, 2, 0)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	right, err := relational.NewTable(
		relational.Schema{{Name: "term", Type: relational.String}, {Name: "score", Type: relational.Int64}},
		[]relational.Column{
			relational.StringColumn{"barbecues", "databases", "clothing", "giraffe"},
			relational.Int64Column{1, 2, 3, 4},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Query{
		Left:  plan.TableRef{Name: "L", Table: left.WithIncarnation(1), TextColumn: "word"},
		Right: plan.TableRef{Name: "R", Table: right.WithIncarnation(2), TextColumn: "term"},
		Model: hashModel(t, 64),
		Join:  plan.JoinSpec{Kind: plan.ThresholdJoin, Threshold: 0.4},
	}
}

func TestRunQuery(t *testing.T) {
	q := queryFixture(t)
	res, pl, err := plan.Run(context.Background(), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Errorf("matches = %v", res.Matches)
	}
	if pl.Strategy != cost.StrategyTensor {
		t.Errorf("strategy = %v, want the tensor scan", pl.Strategy)
	}
	if explain := pl.Explain(); !strings.Contains(explain, "EJoin") {
		t.Errorf("explain output: %s", explain)
	}
	out, err := plan.MaterializeResult(q, res)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Errorf("materialized rows = %d", out.NumRows())
	}
	if _, err := out.Floats("similarity"); err != nil {
		t.Error(err)
	}
}

func TestRunQueryWithPredicates(t *testing.T) {
	q := queryFixture(t)
	q.Right.Predicates = []relational.Pred{{Column: "score", Op: relational.LE, Value: int64(2)}}
	res, _, err := plan.Run(context.Background(), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.Right > 1 {
			t.Errorf("predicate violated: %+v", m)
		}
	}
	if len(res.Matches) != 2 {
		t.Errorf("matches = %v", res.Matches)
	}
}

// TestEmbedColumnAndIndex indexes a TEXT column's embeddings (the
// paper's index join builds over them) and checks the planner rejects a
// TEXT column it cannot embed or cannot find.
func TestEmbedColumnAndIndex(t *testing.T) {
	q := queryFixture(t)
	ctx := context.Background()
	terms, err := q.Right.Table.Strings("term")
	if err != nil {
		t.Fatal(err)
	}
	em, err := core.Embed(ctx, q.Model, terms)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(em, hnsw.Config{M: 4, EfConstruction: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != q.Right.Table.NumRows() {
		t.Errorf("index len = %d", idx.Len())
	}

	// Text column without a model fails.
	noModel := q
	noModel.Model = nil
	if _, _, err := plan.Run(ctx, noModel, nil, nil); err == nil {
		t.Error("expected error for text column without model")
	}
	// Unknown column fails.
	unknown := q
	unknown.Right.TextColumn = "nope"
	if _, _, err := plan.Run(ctx, unknown, nil, nil); err == nil {
		t.Error("expected error for unknown column")
	}
}

// TestRunQueryWithIndex runs the fixture's top-1 join twice: as a served
// plan (the tensor scan) and as the paper's index join the benchmarks time
// (core.IndexJoin over an HNSW index of the right input). On four rows
// the index is exact, so both find the same pairs.
func TestRunQueryWithIndex(t *testing.T) {
	q := queryFixture(t)
	q.Join = plan.JoinSpec{Kind: plan.TopKJoin, K: 1, Threshold: -2}
	ctx := context.Background()
	res, pl, err := plan.Run(ctx, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Strategy != cost.StrategyTensor {
		t.Errorf("strategy = %v", pl.Strategy)
	}
	if len(res.Matches) != 3 {
		t.Errorf("matches = %v", res.Matches)
	}

	words, _ := q.Left.Table.Strings("word")
	terms, _ := q.Right.Table.Strings("term")
	lm, rm, err := embedBoth(ctx, q.Model, words, terms)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(rm, hnsw.Config{M: 8, EfConstruction: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byIndex, err := core.IndexJoin(ctx, lm, idx, core.IndexJoinCondition{K: 1, MinSim: -2}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(byIndex.Matches) != len(res.Matches) {
		t.Fatalf("index join found %v, the tensor scan %v", byIndex.Matches, res.Matches)
	}
	for i, m := range res.Matches {
		if got := byIndex.Matches[i]; got.Left != m.Left || got.Right != m.Right {
			t.Errorf("pair %d: index join %+v, tensor scan %+v", i, got, m)
		}
	}
}

func TestIndexConfigPresets(t *testing.T) {
	hi, lo := hnsw.ConfigHi(), hnsw.ConfigLo()
	if hi.M != 64 || lo.M != 32 {
		t.Errorf("presets: hi=%+v lo=%+v", hi, lo)
	}
}

func TestCostParamsSurface(t *testing.T) {
	p := cost.DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cp, err := cost.Calibrate(hashModel(t, 16), 16)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Model <= 0 {
		t.Errorf("calibrated params: %+v", cp)
	}
}
