package hnsw

import (
	"math/rand"
	"testing"

	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

func randomUnitVectors(seed int64, n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(v)
		out[i] = v
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Error("expected error for dim=0")
	}
	if _, err := Build(nil, Config{}); err == nil {
		t.Error("expected error for empty build")
	}
}

func TestConfigPresets(t *testing.T) {
	hi := ConfigHi()
	lo := ConfigLo()
	if hi.M != 64 || hi.EfConstruction != 512 {
		t.Errorf("ConfigHi = %+v", hi)
	}
	if lo.M != 32 || lo.EfConstruction != 256 {
		t.Errorf("ConfigLo = %+v", lo)
	}
	if hi.M <= lo.M {
		t.Error("Hi must be denser than Lo")
	}
}

func TestInsertAndLen(t *testing.T) {
	ix, err := New(4, Config{M: 4, EfConstruction: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 || ix.Dim() != 4 {
		t.Fatal("fresh index wrong")
	}
	id, err := ix.Insert([]float32{1, 0, 0, 0})
	if err != nil || id != 0 {
		t.Fatalf("Insert = %d, %v", id, err)
	}
	id2, _ := ix.Insert([]float32{0, 1, 0, 0})
	if id2 != 1 || ix.Len() != 2 {
		t.Fatalf("second insert: id=%d len=%d", id2, ix.Len())
	}
	if _, err := ix.Insert([]float32{1, 2}); err == nil {
		t.Error("expected dim mismatch")
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	ix, _ := New(4, Config{})
	res, err := ix.Search([]float32{1, 0, 0, 0}, 3, SearchOptions{})
	if err != nil || res != nil {
		t.Errorf("empty index search = %v, %v", res, err)
	}
}

func TestSearchValidation(t *testing.T) {
	ix, _ := New(4, Config{})
	if _, err := ix.Search([]float32{1}, 3, SearchOptions{}); err == nil {
		t.Error("expected dim error")
	}
	_, _ = ix.Insert([]float32{1, 0, 0, 0})
	if _, err := ix.Search([]float32{1, 0, 0, 0}, 0, SearchOptions{}); err == nil {
		t.Error("expected k error")
	}
}

func TestSearchExactSelf(t *testing.T) {
	data := randomUnitVectors(3, 200, 16)
	ix, err := Build(data, Config{M: 8, EfConstruction: 64, EfSearch: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Querying with an indexed vector must return it first.
	for _, qi := range []int{0, 17, 99, 199} {
		res, err := ix.Search(data[qi], 1, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != qi {
			t.Errorf("query %d: got %v", qi, res)
		}
		if res[0].Sim < 0.999 {
			t.Errorf("self sim = %v", res[0].Sim)
		}
	}
}

func TestSearchSortedDescending(t *testing.T) {
	data := randomUnitVectors(7, 300, 8)
	ix, _ := Build(data, Config{M: 8, EfConstruction: 64, Seed: 7})
	res, err := ix.Search(data[0], 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("len = %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Sim > res[i-1].Sim {
			t.Fatalf("not sorted at %d: %v", i, res)
		}
	}
}

// TestRecall validates approximate accuracy: with a generous beam on small
// data, HNSW should achieve high recall versus exhaustive search.
func TestRecall(t *testing.T) {
	data := randomUnitVectors(11, 1000, 16)
	queries := randomUnitVectors(13, 30, 16)
	ix, err := Build(data, Config{M: 16, EfConstruction: 128, EfSearch: 128, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Recall(ix, data, queries, 10, SearchOptions{Ef: 128})
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.85 {
		t.Errorf("recall@10 = %v, want >= 0.85", r)
	}
}

// TestRecallHiVsLo reproduces the paper's Hi/Lo tradeoff direction: the
// higher-quality configuration must not have lower recall.
func TestRecallHiVsLo(t *testing.T) {
	data := randomUnitVectors(17, 800, 16)
	queries := randomUnitVectors(19, 25, 16)
	hi, err := Build(data, Config{M: 32, EfConstruction: 256, EfSearch: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Build(data, Config{M: 4, EfConstruction: 8, EfSearch: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rHi, err := Recall(hi, data, queries, 10, SearchOptions{Ef: 64})
	if err != nil {
		t.Fatal(err)
	}
	rLo, err := Recall(lo, data, queries, 10, SearchOptions{Ef: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rHi < rLo-0.05 {
		t.Errorf("hi recall %v below lo recall %v", rHi, rLo)
	}
}

func TestPreFilter(t *testing.T) {
	data := randomUnitVectors(23, 400, 8)
	ix, _ := Build(data, Config{M: 8, EfConstruction: 64, Seed: 23})
	// Only even IDs pass the relational pre-filter.
	filter := relational.NewBitmap(400)
	for i := 0; i < 400; i += 2 {
		filter.Set(i)
	}
	res, err := ix.Search(data[10], 20, SearchOptions{Ef: 64, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results with filter")
	}
	for _, r := range res {
		if r.ID%2 != 0 {
			t.Errorf("filtered-out ID %d returned", r.ID)
		}
	}
	// Filter excluding everything yields nothing but does not error.
	none := relational.NewBitmap(400)
	res, err = ix.Search(data[10], 5, SearchOptions{Filter: none})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("expected no results, got %v", res)
	}
}

// TestPreFilterPaysTraversal verifies vector-DB pre-filter semantics:
// filtering does not reduce traversal cost (distance computations), it only
// excludes results — the asymmetry the paper's Figures 15-17 build on.
func TestPreFilterPaysTraversal(t *testing.T) {
	data := randomUnitVectors(29, 500, 8)
	ix, _ := Build(data, Config{M: 8, EfConstruction: 64, Seed: 29})
	q := randomUnitVectors(31, 1, 8)[0]

	base := ix.DistanceCalls()
	if _, err := ix.Search(q, 10, SearchOptions{Ef: 32}); err != nil {
		t.Fatal(err)
	}
	unfiltered := ix.DistanceCalls() - base

	filter := relational.NewBitmap(500)
	for i := 0; i < 50; i++ {
		filter.Set(i)
	}
	base = ix.DistanceCalls()
	if _, err := ix.Search(q, 10, SearchOptions{Ef: 32, Filter: filter}); err != nil {
		t.Fatal(err)
	}
	filtered := ix.DistanceCalls() - base

	if filtered < unfiltered/2 {
		t.Errorf("pre-filtering should not shortcut traversal: %d vs %d calls", filtered, unfiltered)
	}
}

func TestDistanceCallsMonotonic(t *testing.T) {
	data := randomUnitVectors(43, 100, 8)
	ix, _ := Build(data, Config{M: 8, EfConstruction: 32, Seed: 43})
	before := ix.DistanceCalls()
	if before <= 0 {
		t.Error("construction should count distance calls")
	}
	_, _ = ix.Search(data[0], 5, SearchOptions{})
	if ix.DistanceCalls() <= before {
		t.Error("search should count distance calls")
	}
}

// TestIndexAvoidsExhaustiveScan: a probe must touch far fewer vectors than
// the scan would — the whole point of the index (Table I's cost row).
func TestIndexAvoidsExhaustiveScan(t *testing.T) {
	n := 2000
	data := randomUnitVectors(47, n, 16)
	ix, _ := Build(data, Config{M: 8, EfConstruction: 64, EfSearch: 32, Seed: 47})
	before := ix.DistanceCalls()
	if _, err := ix.Search(data[0], 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	probeCost := ix.DistanceCalls() - before
	if probeCost >= int64(n) {
		t.Errorf("probe cost %d not sublinear in n=%d", probeCost, n)
	}
}

func TestDeterministicBuild(t *testing.T) {
	data := randomUnitVectors(53, 200, 8)
	a, _ := Build(data, Config{M: 8, EfConstruction: 32, Seed: 9})
	b, _ := Build(data, Config{M: 8, EfConstruction: 32, Seed: 9})
	q := data[7]
	ra, _ := a.Search(q, 10, SearchOptions{})
	rb, _ := b.Search(q, 10, SearchOptions{})
	if len(ra) != len(rb) {
		t.Fatalf("lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].ID != rb[i].ID {
			t.Fatalf("results differ at %d: %v vs %v", i, ra[i], rb[i])
		}
	}
}

func TestUnnormalizedInputHandled(t *testing.T) {
	// Index normalizes internally: scaled copies of the same direction
	// must be identical to the index.
	ix, _ := New(4, Config{M: 4, EfConstruction: 16, Seed: 13})
	_, _ = ix.Insert([]float32{10, 0, 0, 0})
	_, _ = ix.Insert([]float32{0, 0.1, 0, 0})
	res, err := ix.Search([]float32{3, 0, 0, 0}, 1, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 0 || res[0].Sim < 0.999 {
		t.Errorf("res = %v", res)
	}
}
