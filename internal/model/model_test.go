package model

import (
	"errors"
	"strings"
	"testing"

	"ejoin/internal/vec"
)

func mustEmbedder(t *testing.T, dim int, opts ...HashEmbedderOption) *HashEmbedder {
	t.Helper()
	h, err := NewHashEmbedder(dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// embedAll embeds every input, stopping at the first error.
func embedAll(m Model, inputs []string) ([][]float32, error) {
	out := make([][]float32, len(inputs))
	for i, s := range inputs {
		e, err := m.Embed(s)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// similarity is the cosine similarity of the embeddings of a and b.
func similarity(m Model, a, b string) (float32, error) {
	vs, err := embedAll(m, []string{a, b})
	if err != nil {
		return 0, err
	}
	return vec.Cosine(vec.KernelSIMD, vs[0], vs[1]), nil
}

func TestNewHashEmbedderValidation(t *testing.T) {
	if _, err := NewHashEmbedder(0); err == nil {
		t.Error("expected error for dim=0")
	}
	if _, err := NewHashEmbedder(10, WithNGramRange(5, 3)); err == nil {
		t.Error("expected error for bad n-gram range")
	}
	if _, err := NewHashEmbedder(10, WithNGramRange(0, 3)); err == nil {
		t.Error("expected error for minN=0")
	}
}

func TestEmbedDeterministic(t *testing.T) {
	h := mustEmbedder(t, 100)
	a1, err := h.Embed("barbecue")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := h.Embed("barbecue")
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(a1, a2, 0) {
		t.Error("embedding is not deterministic")
	}
	h2 := mustEmbedder(t, 100)
	a3, _ := h2.Embed("barbecue")
	if !vec.Equal(a1, a3, 0) {
		t.Error("embedding differs across instances with same seed")
	}
	h3 := mustEmbedder(t, 100, WithSeed(7))
	a4, _ := h3.Embed("barbecue")
	if vec.Equal(a1, a4, 1e-6) {
		t.Error("different seeds should produce different embeddings")
	}
}

func TestEmbedProperties(t *testing.T) {
	h := mustEmbedder(t, 100)
	e, err := h.Embed("database")
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 100 {
		t.Fatalf("dim = %d", len(e))
	}
	if !vec.IsNormalized(e, 1e-4) {
		t.Errorf("not unit norm: %v", vec.Norm(e))
	}
	if h.Dim() != 100 {
		t.Errorf("Dim = %d", h.Dim())
	}
	if !strings.Contains(h.Name(), "100") {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestEmbedEmpty(t *testing.T) {
	h := mustEmbedder(t, 10)
	if _, err := h.Embed(""); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("err = %v", err)
	}
	if _, err := h.Embed("   "); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("whitespace err = %v", err)
	}
}

// TestMisspellingSimilarity is the core FastText-like property: shared
// subword n-grams pull misspellings together relative to unrelated words.
func TestMisspellingSimilarity(t *testing.T) {
	h := mustEmbedder(t, 100)
	pairs := [][2]string{
		{"barbecue", "barbicue"},
		{"barbecue", "barbecues"},
		{"postgres", "postgre"},
		{"clothes", "clothing"},
		{"database", "databases"},
	}
	unrelated := [][2]string{
		{"barbecue", "spreadsheet"},
		{"postgres", "giraffe"},
		{"clothes", "quantum"},
	}
	for _, p := range pairs {
		s, err := similarity(h, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if s < 0.3 {
			t.Errorf("similar pair %v: sim = %v, want >= 0.3", p, s)
		}
	}
	for _, p := range unrelated {
		s, _ := similarity(h, p[0], p[1])
		if s > 0.25 {
			t.Errorf("unrelated pair %v: sim = %v, want < 0.25", p, s)
		}
	}
	// Relative ordering: misspelling closer than unrelated word.
	sim, _ := similarity(h, "barbecue", "barbicue")
	dis, _ := similarity(h, "barbecue", "spreadsheet")
	if sim <= dis {
		t.Errorf("misspelling (%v) not closer than unrelated (%v)", sim, dis)
	}
}

// TestSynonymClusters validates the semantic substitution: words sharing no
// n-grams become similar through the cluster component.
func TestSynonymClusters(t *testing.T) {
	clusters := map[string][]string{
		"grill": {"barbecue", "bbq", "grilling"},
	}
	h := mustEmbedder(t, 100, WithSynonyms(clusters))
	withCluster, err := similarity(h, "barbecue", "bbq")
	if err != nil {
		t.Fatal(err)
	}
	plain := mustEmbedder(t, 100)
	without, _ := similarity(plain, "barbecue", "bbq")
	if withCluster <= without {
		t.Errorf("cluster did not increase similarity: %v <= %v", withCluster, without)
	}
	if withCluster < 0.5 {
		t.Errorf("cluster members should be similar: %v", withCluster)
	}
	// Non-members are unaffected.
	offCluster, _ := similarity(h, "barbecue", "giraffe")
	if offCluster > 0.3 {
		t.Errorf("non-member pulled in: %v", offCluster)
	}
}

func TestClusterWeight(t *testing.T) {
	clusters := map[string][]string{"c": {"alpha", "omega"}}
	weak := mustEmbedder(t, 100, WithSynonyms(clusters), WithClusterWeight(0.5))
	strong := mustEmbedder(t, 100, WithSynonyms(clusters), WithClusterWeight(8))
	sw, _ := similarity(weak, "alpha", "omega")
	ss, _ := similarity(strong, "alpha", "omega")
	if ss <= sw {
		t.Errorf("higher weight should increase similarity: %v <= %v", ss, sw)
	}
}

func TestCaseAndPunctuationNormalization(t *testing.T) {
	h := mustEmbedder(t, 64)
	a, _ := h.Embed("Barbecue")
	b, _ := h.Embed("barbecue,")
	if !vec.Equal(a, b, 1e-6) {
		t.Error("case/punctuation should normalize to same embedding")
	}
}

func TestMultiTokenEmbedding(t *testing.T) {
	h := mustEmbedder(t, 64)
	ab, err := h.Embed("hello world")
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := h.Embed("world hello")
	// Bag-of-words: order-invariant.
	if !vec.Equal(ab, ba, 1e-5) {
		t.Error("bag-of-words embedding should be order invariant")
	}
	if !vec.IsNormalized(ab, 1e-4) {
		t.Error("phrase embedding not normalized")
	}
}

func TestWithCache(t *testing.T) {
	h := mustEmbedder(t, 32, WithCache())
	a, _ := h.Embed("cached")
	b, _ := h.Embed("cached")
	if !vec.Equal(a, b, 0) {
		t.Error("cache changed result")
	}
	// Returned slices must not alias the cache.
	a[0] = 999
	c, _ := h.Embed("cached")
	if c[0] == 999 {
		t.Error("cache aliasing: caller mutation visible")
	}
}

func TestRandomEmbedder(t *testing.T) {
	r, err := NewRandomEmbedder(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRandomEmbedder(0, 1); err == nil {
		t.Error("expected dim error")
	}
	a, _ := r.Embed("x")
	b, _ := r.Embed("x")
	if !vec.Equal(a, b, 0) {
		t.Error("not deterministic")
	}
	c, _ := r.Embed("y")
	if s := vec.Cosine(vec.KernelSIMD, a, c); s > 0.5 {
		t.Errorf("distinct inputs should be near-orthogonal: %v", s)
	}
	if !vec.IsNormalized(a, 1e-4) {
		t.Error("not normalized")
	}
	if _, err := r.Embed(""); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("err = %v", err)
	}
	if r.Dim() != 50 || !strings.Contains(r.Name(), "50") {
		t.Errorf("Dim/Name = %d/%q", r.Dim(), r.Name())
	}
}

func TestEmbedAll(t *testing.T) {
	h := mustEmbedder(t, 16)
	vs, err := embedAll(h, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || len(vs[0]) != 16 {
		t.Errorf("EmbedAll shape: %d x %d", len(vs), len(vs[0]))
	}
	if _, err := embedAll(h, []string{"a", ""}); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestCountingModel(t *testing.T) {
	h := mustEmbedder(t, 8)
	c := NewCountingModel(h)
	if c.Calls() != 0 {
		t.Error("fresh counter not zero")
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Embed("w"); err != nil {
			t.Fatal(err)
		}
	}
	if c.Calls() != 5 {
		t.Errorf("Calls = %d", c.Calls())
	}
	c.Reset()
	if c.Calls() != 0 {
		t.Error("Reset failed")
	}
	if c.Dim() != 8 || !strings.Contains(c.Name(), "count") {
		t.Errorf("Dim/Name = %d/%q", c.Dim(), c.Name())
	}
}

func TestFailingModel(t *testing.T) {
	h := mustEmbedder(t, 8)
	boom := errors.New("boom")
	f := &FailingModel{Inner: h, Match: func(s string) bool { return s == "bad" }, Err: boom}
	if _, err := f.Embed("good"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Embed("bad"); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if f.Dim() != 8 || !strings.Contains(f.Name(), "failing") {
		t.Errorf("Dim/Name = %d/%q", f.Dim(), f.Name())
	}
}

func TestSimilarityErrors(t *testing.T) {
	h := mustEmbedder(t, 8)
	if _, err := similarity(h, "", "x"); err == nil {
		t.Error("expected error for empty a")
	}
	if _, err := similarity(h, "x", ""); err == nil {
		t.Error("expected error for empty b")
	}
}

func TestLookupTable(t *testing.T) {
	h := mustEmbedder(t, 32)
	words := []string{"alpha", "beta", "gamma"}
	tbl, err := BuildLookupTable(h, words)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for i, w := range words {
		got, err := tbl.Decode(i)
		if err != nil || got != w {
			t.Errorf("Decode(%d) = %q, %v", i, got, err)
		}
	}
	if _, err := tbl.Decode(-1); err == nil {
		t.Error("expected range error")
	}
	if _, err := tbl.Decode(3); err == nil {
		t.Error("expected range error")
	}
}

// TestLookupRoundTrip is the E⁻¹(E(R)) = R property via the lookup table.
func TestLookupRoundTrip(t *testing.T) {
	h := mustEmbedder(t, 64)
	words := []string{"barbecue", "postgres", "clothes", "database", "giraffe"}
	tbl, err := BuildLookupTable(h, words)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		e, _ := h.Embed(w)
		top := tbl.TopK(e, 1)
		if len(top) != 1 {
			t.Fatalf("nearest of %q: %v", w, top)
		}
		got, _ := tbl.Decode(top[0].ID)
		sim := top[0].Sim
		if got != w {
			t.Errorf("round trip %q -> %q (sim %v)", w, got, sim)
		}
		if sim < 0.999 {
			t.Errorf("self similarity = %v", sim)
		}
	}
}

func TestLookupNearestEmpty(t *testing.T) {
	tbl := NewLookupTable(4)
	if top := tbl.TopK([]float32{1, 0, 0, 0}, 1); len(top) != 0 {
		t.Errorf("empty table: nearest = %v", top)
	}
}

func TestLookupTopK(t *testing.T) {
	h := mustEmbedder(t, 64)
	words := []string{"databases", "database", "databse", "giraffe", "quantum"}
	tbl, err := BuildLookupTable(h, words)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := h.Embed("database")
	top := tbl.TopK(q, 3)
	if len(top) != 3 {
		t.Fatalf("TopK len = %d", len(top))
	}
	// Sorted descending.
	for i := 1; i < len(top); i++ {
		if top[i].Sim > top[i-1].Sim {
			t.Errorf("not sorted: %v", top)
		}
	}
	// Exact word first.
	if w, _ := tbl.Decode(top[0].ID); w != "database" {
		t.Errorf("top1 = %q", w)
	}
	// All surface variants beat unrelated words.
	got := map[string]bool{}
	for _, s := range top {
		w, _ := tbl.Decode(s.ID)
		got[w] = true
	}
	if got["giraffe"] || got["quantum"] {
		t.Errorf("unrelated word in top-3: %v", got)
	}
	if tbl.TopK(q, 0) != nil {
		t.Error("TopK(0) should be nil")
	}
	// k > len returns all.
	if all := tbl.TopK(q, 100); len(all) != 5 {
		t.Errorf("TopK(100) len = %d", len(all))
	}
}

func TestBuildLookupTableError(t *testing.T) {
	h := mustEmbedder(t, 8)
	if _, err := BuildLookupTable(h, []string{"a", ""}); err == nil {
		t.Error("expected error")
	}
}
