package workload

import (
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/vec"
)

func TestVectorsDeterministic(t *testing.T) {
	a := Vectors(1, 10, 16)
	b := Vectors(1, 10, 16)
	if !vec.Equal(a.Data, b.Data, 0) {
		t.Error("same seed should produce same vectors")
	}
	c := Vectors(2, 10, 16)
	if vec.Equal(a.Data, c.Data, 1e-9) {
		t.Error("different seeds should differ")
	}
	if !unitRows(a) {
		t.Error("rows must be unit norm")
	}
}

func TestCorrelatedVectors(t *testing.T) {
	m := CorrelatedVectors(3, 100, 32, 4, 0.05)
	if m.Rows() != 100 || !unitRows(m) {
		t.Fatal("shape/norm wrong")
	}
	// With 4 tight clusters over 100 rows, many pairs must be highly
	// similar — unlike pure random vectors.
	high := 0
	for i := 0; i < 50; i++ {
		for j := 50; j < 100; j++ {
			if vec.Dot(vec.KernelSIMD, m.Row(i), m.Row(j)) > 0.9 {
				high++
			}
		}
	}
	if high == 0 {
		t.Error("no similar pairs in clustered data")
	}
	random := Vectors(3, 100, 32)
	highRnd := 0
	for i := 0; i < 50; i++ {
		for j := 50; j < 100; j++ {
			if vec.Dot(vec.KernelSIMD, random.Row(i), random.Row(j)) > 0.9 {
				highRnd++
			}
		}
	}
	if highRnd >= high {
		t.Error("clustered data should have more similar pairs than random")
	}
}

func TestUniformIntColumnAndSelectivity(t *testing.T) {
	col := UniformIntColumn(5, 10000, 1000)
	for _, v := range col {
		if v < 0 || v >= 1000 {
			t.Fatalf("value out of range: %d", v)
		}
	}
	for _, sel := range []float64{0.1, 0.5, 0.9} {
		bm := SelectivityBitmap(col, 1000, sel)
		got := float64(bm.Count()) / float64(len(col))
		if got < sel-0.03 || got > sel+0.03 {
			t.Errorf("selectivity %v: got %v", sel, got)
		}
	}
}

func TestMisspell(t *testing.T) {
	w := "barbecue"
	seen := map[string]bool{}
	for v := 0; v < 8; v++ {
		ms := Misspell(w, v)
		if ms == "" {
			t.Fatal("empty misspelling")
		}
		seen[ms] = true
	}
	if len(seen) < 3 {
		t.Errorf("too few distinct misspellings: %v", seen)
	}
	if Misspell("ab", 0) != "ab" {
		t.Error("short words pass through")
	}
}

func TestStrings(t *testing.T) {
	ss := Strings(13, 500, nil)
	if len(ss) != 500 {
		t.Fatalf("len = %d", len(ss))
	}
	for _, s := range ss {
		if s == "" {
			t.Fatal("empty string generated")
		}
	}
	// Deterministic.
	ss2 := Strings(13, 500, nil)
	for i := range ss {
		if ss[i] != ss2[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestTableIIVocabulary(t *testing.T) {
	vocab, clusters := TableIIVocabulary()
	seen := map[string]bool{}
	for _, w := range vocab {
		if seen[w] {
			t.Errorf("duplicate vocab word %q", w)
		}
		seen[w] = true
	}
	for _, q := range TableIIWords {
		if !seen[q] {
			t.Errorf("query word %q missing from vocabulary", q)
		}
	}
	if len(clusters["dbtech"]) == 0 || len(clusters["garment"]) == 0 {
		t.Error("clusters missing")
	}
}

// TestTableIISemanticMatching is the Table II reproduction in miniature:
// for each query word, the expected neighbors must rank inside the top-15
// of the vocabulary by model similarity, ahead of filler words.
func TestTableIISemanticMatching(t *testing.T) {
	vocab, _ := TableIIVocabulary()
	m, err := TableIIModel(100)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := model.BuildLookupTable(m, vocab)
	if err != nil {
		t.Fatal(err)
	}
	_, clusters := TableIIVocabulary()
	for query, expected := range tableIIExpected() {
		qe, err := m.Embed(query)
		if err != nil {
			t.Fatal(err)
		}
		top := tbl.TopK(qe, 15) // query itself + 14 matches
		names := map[string]int{}
		for rank, s := range top {
			w, _ := tbl.Decode(s.ID)
			names[w] = rank
		}
		for _, want := range expected {
			if _, ok := names[want]; !ok {
				t.Errorf("%s: expected %q in top-15, got %v", query, want, rankedNames(tbl, top))
			}
		}
		for _, noise := range []string{"giraffe", "quantum", "molecule"} {
			if _, ok := names[noise]; ok {
				t.Errorf("%s: filler %q ranked in top-15", query, noise)
			}
		}
		// Shape check: every top-15 entry belongs to the query's semantic
		// cluster (as in the paper, where all of Table II's matches are
		// domain neighbors).
		members := map[string]bool{}
		for _, w := range clusters[tableIICluster(query)] {
			members[w] = true
		}
		for w := range names {
			if !members[w] {
				t.Errorf("%s: top-15 contains non-cluster word %q", query, w)
			}
		}
	}
}

func rankedNames(tbl *model.LookupTable, top []model.ScoredID) []string {
	out := make([]string, len(top))
	for i, s := range top {
		out[i], _ = tbl.Decode(s.ID)
	}
	return out
}

// tableIIExpected maps each query word to terms that must appear among its
// top matches: the subword-reinforced subset of the paper's lists, which is
// stable under the hash model (pure-cluster members like nosql land in the
// top-15 only up to tie-order among cluster peers).
func tableIIExpected() map[string][]string {
	return map[string][]string{
		"dbms":     {"rdbms", "dbmss", "oodbms", "ordbms"},
		"postgres": {"postgre", "postgresql", "postgis"},
		"clothes":  {"clothing", "clothings", "dresses", "garments"},
	}
}

// tableIICluster returns the cluster label whose members should dominate
// the query word's top-15 (the shape check: semantic neighbors in, filler
// out).
func tableIICluster(query string) string {
	if query == "clothes" {
		return "garment"
	}
	return "dbtech"
}

// unitRows reports whether every row of m is unit-norm within 1e-4.
func unitRows(m *mat.Matrix) bool {
	for i := 0; i < m.Rows(); i++ {
		if !vec.IsNormalized(m.Row(i), 1e-4) {
			return false
		}
	}
	return true
}
