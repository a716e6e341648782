package ivf

import (
	"math/rand"
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// clusteredVectors builds unit-norm vectors around nclusters random
// centers — the workload shape where IVF partitioning pays off and PQ
// residual codes carry signal (embedding corpora are clustered; uniform
// random vectors are the information-theoretic worst case for M-byte
// codes and defeat any quantizer).
func clusteredVectors(seed int64, n, dim, nclusters int) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	centers := mat.New(nclusters, dim)
	for i := 0; i < nclusters; i++ {
		row := centers.Row(i)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(row)
	}
	m := mat.New(n, dim)
	for i := 0; i < n; i++ {
		c := centers.Row(rng.Intn(nclusters))
		row := m.Row(i)
		for j := range row {
			row[j] = c[j] + 0.1*float32(rng.NormFloat64())
		}
		vec.Normalize(row)
	}
	return m
}

// exactTopK is the ground-truth top-k by exhaustive normalized dot.
func exactTopK(data *mat.Matrix, q []float32, k int) []int {
	nq := vec.Clone(q)
	vec.Normalize(nq)
	type scored struct {
		id  int
		sim float32
	}
	all := make([]scored, data.Rows())
	for i := range all {
		all[i] = scored{i, vec.Dot(vec.KernelScalar, nq, data.Row(i))}
	}
	for i := 0; i < k && i < len(all); i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].sim > all[best].sim {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([]int, 0, k)
	for i := 0; i < k && i < len(all); i++ {
		out = append(out, all[i].id)
	}
	return out
}

// TestPQIVFRecallAndCompression is the acceptance gate: with rerank
// enabled the compressed index reaches >= 0.95 recall@10 against exact
// F32 top-k, while its resident bytes stay >= 4x below the flat index's
// normalized vector copy.
func TestPQIVFRecallAndCompression(t *testing.T) {
	n, dim, nq, k := 3000, 64, 60, 10
	data := clusteredVectors(101, n, dim, 32)
	ix, err := BuildPQ(data, Config{NLists: 32, Seed: 1, NProbe: 8}, quant.PQConfig{M: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	norm := data.Clone()
	norm.NormalizeRows()
	if err := ix.AttachRerank(norm); err != nil {
		t.Fatal(err)
	}

	flatBytes := norm.SizeBytes()
	if ratio := float64(flatBytes) / float64(ix.SizeBytes()); ratio < 4 {
		t.Fatalf("compression %.2fx < 4x (index %d bytes, flat vectors %d bytes)",
			ratio, ix.SizeBytes(), flatBytes)
	}

	queries := clusteredVectors(103, nq, dim, 24)
	hits, total := 0, 0
	for qi := 0; qi < nq; qi++ {
		q := queries.Row(qi)
		truth := exactTopK(norm, q, k)
		truthSet := make(map[int]bool, k)
		for _, id := range truth {
			truthSet[id] = true
		}
		res, err := ix.Search(q, k, PQSearchOptions{NProbe: 12, RerankC: 8 * k})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if truthSet[r.ID] {
				hits++
			}
		}
		total += len(truth)
	}
	recall := float64(hits) / float64(total)
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.3f < 0.95 with rerank enabled", k, recall)
	}
}

// TestPQIVFRerankImproves: the exact rerank pass strictly dominates pure
// ADC ordering (rerank similarities are exact dots; ADC-only scores are
// estimates), and rerank results are sorted descending.
func TestPQIVFRerankImproves(t *testing.T) {
	data := clusteredVectors(107, 1500, 32, 16)
	norm := data.Clone()
	norm.NormalizeRows()
	build := func() *PQIndex {
		ix, err := BuildPQ(data, Config{NLists: 16, Seed: 3, NProbe: 16}, quant.PQConfig{M: 8, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	adcOnly := build()
	reranked := build()
	if err := reranked.AttachRerank(norm); err != nil {
		t.Fatal(err)
	}
	queries := clusteredVectors(109, 30, 32, 16)
	k := 10
	adcHits, rerankHits, total := 0, 0, 0
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		truthSet := map[int]bool{}
		for _, id := range exactTopK(norm, q, k) {
			truthSet[id] = true
		}
		ra, err := adcOnly.Search(q, k, PQSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := reranked.Search(q, k, PQSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(rr); i++ {
			if rr[i].Sim > rr[i-1].Sim {
				t.Fatalf("query %d: rerank results not sorted descending", qi)
			}
		}
		for _, r := range ra {
			if truthSet[r.ID] {
				adcHits++
			}
		}
		for _, r := range rr {
			if truthSet[r.ID] {
				rerankHits++
			}
		}
		total += k
	}
	if rerankHits < adcHits {
		t.Fatalf("rerank recall %d/%d below ADC-only %d/%d", rerankHits, total, adcHits, total)
	}
	if float64(rerankHits)/float64(total) < 0.9 {
		t.Fatalf("rerank recall %d/%d unexpectedly low", rerankHits, total)
	}
}

// TestPQIVFFilter: pre-filtering restricts results and reduces scoring
// work, matching IVF-Flat's semantics.
func TestPQIVFFilter(t *testing.T) {
	data := clusteredVectors(113, 600, 16, 8)
	norm := data.Clone()
	norm.NormalizeRows()
	ix, err := BuildPQ(data, Config{NLists: 8, Seed: 5, NProbe: 8}, quant.PQConfig{M: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachRerank(norm); err != nil {
		t.Fatal(err)
	}
	filter := relational.NewBitmap(600)
	for i := 0; i < 600; i += 3 {
		filter.Set(i)
	}
	res, err := ix.Search(data.Row(0), 20, PQSearchOptions{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results under filter")
	}
	for _, r := range res {
		if r.ID%3 != 0 {
			t.Fatalf("result %d violates filter", r.ID)
		}
	}
}

// TestPQIVFVindex: the compressed index satisfies the planner's access
// path contract.
func TestPQIVFVindex(t *testing.T) {
	data := clusteredVectors(127, 400, 16, 8)
	ix, err := BuildPQ(data, Config{Seed: 7}, quant.PQConfig{M: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.TopK(data.Row(3), 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("%d hits, want 5", len(hits))
	}
	if ix.DistanceCalls() == 0 {
		t.Fatal("distance calls not counted")
	}
}
