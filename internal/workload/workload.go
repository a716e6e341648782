// Package workload generates the synthetic datasets of the evaluation:
// seeded random embeddings (Figures 8-17 use synthetic vectors with a fixed
// RNG seed "for reproducibility"), a Wikipedia-like vocabulary with
// misspellings, plural forms, and synonym clusters (Table II), and
// selectivity-controlled relational columns (Figures 15-17).
package workload

import (
	"fmt"
	"math/rand"

	"ejoin/internal/mat"
	"ejoin/internal/relational"
)

// Vectors returns n unit-norm random embeddings of the given
// dimensionality, deterministic in seed.
func Vectors(seed int64, n, dim int) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(n, dim)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	m.NormalizeRows()
	return m
}

// CorrelatedVectors returns n unit vectors drawn near k cluster centers so
// that similarity joins over them have non-trivial selectivity (pure random
// high-dimensional vectors are all near-orthogonal). noise controls spread:
// 0 collapses onto centers, large values approach uniform.
func CorrelatedVectors(seed int64, n, dim, k int, noise float64) *mat.Matrix {
	return CorrelatedVectorsFrom(seed, seed+1, n, dim, k, noise)
}

// CorrelatedVectorsFrom is CorrelatedVectors with the cluster centers
// derived from a separate seed, so two relations can share centers (and
// therefore have cross-relation matches) while drawing independent
// members.
func CorrelatedVectorsFrom(seed, centersSeed int64, n, dim, k int, noise float64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	centers := Vectors(centersSeed, k, dim)
	m := mat.New(n, dim)
	for i := 0; i < n; i++ {
		c := centers.Row(rng.Intn(k))
		row := m.Row(i)
		for j := range row {
			row[j] = c[j] + float32(rng.NormFloat64()*noise)
		}
	}
	m.NormalizeRows()
	return m
}

// UniformIntColumn returns n int64 values uniform in [0, card), the
// relational attribute Figures 15-17 filter on: predicate value < sel*card
// has selectivity sel.
func UniformIntColumn(seed int64, n int, card int64) relational.Int64Column {
	rng := rand.New(rand.NewSource(seed))
	col := make(relational.Int64Column, n)
	for i := range col {
		col[i] = rng.Int63n(card)
	}
	return col
}

// SelectivityBitmap marks approximately selectivity*n rows: those whose
// value is below selectivity*card.
func SelectivityBitmap(col relational.Int64Column, card int64, selectivity float64) *relational.Bitmap {
	cut := int64(selectivity * float64(card))
	b := relational.NewBitmap(len(col))
	for i, v := range col {
		if v < cut {
			b.Set(i)
		}
	}
	return b
}

// Misspell introduces one deterministic typo (per FastText's robustness
// story): swap, drop, duplicate, or replace one character.
func Misspell(word string, variant int) string {
	if len(word) < 3 {
		return word
	}
	pos := 1 + variant%(len(word)-2)
	switch variant % 4 {
	case 0: // swap adjacent
		b := []byte(word)
		b[pos], b[pos+1] = b[pos+1], b[pos]
		return string(b)
	case 1: // drop
		return word[:pos] + word[pos+1:]
	case 2: // duplicate
		return word[:pos] + word[pos:pos+1] + word[pos:]
	default: // replace with next letter
		b := []byte(word)
		b[pos] = 'a' + (b[pos]-'a'+1)%26
		return string(b)
	}
}

// Strings generates n context-rich strings: base vocabulary words plus
// deterministic misspellings and plural variants, mimicking dirty data
// feeds (Section II-A2).
func Strings(seed int64, n int, vocabulary []string) []string {
	if len(vocabulary) == 0 {
		vocabulary = BaseVocabulary()
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		w := vocabulary[rng.Intn(len(vocabulary))]
		switch rng.Intn(4) {
		case 0:
			out[i] = w
		case 1:
			out[i] = w + "s"
		case 2:
			out[i] = Misspell(w, rng.Intn(8))
		default:
			out[i] = fmt.Sprintf("%s %s", w, vocabulary[rng.Intn(len(vocabulary))])
		}
	}
	return out
}

// BaseVocabulary is a compact vocabulary spanning the domains the paper's
// examples draw from (databases, commerce, general nouns).
func BaseVocabulary() []string {
	return []string{
		"dbms", "postgres", "database", "analytics", "vector", "index",
		"clothes", "dresses", "garments", "shoes", "towels",
		"barbecue", "grilling", "kitchen", "recipe",
		"giraffe", "quantum", "mountain", "river", "painting",
		"transaction", "customer", "review", "social", "media",
	}
}
