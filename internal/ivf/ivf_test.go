package ivf

import (
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(workload.Vectors(1, 0, 8), Config{}); err == nil {
		t.Error("expected empty-input error")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults(100)
	if cfg.NLists != 10 { // isqrt(100)
		t.Errorf("NLists = %d", cfg.NLists)
	}
	if cfg.KMeansIters != 10 || cfg.NProbe != 8 {
		t.Errorf("defaults: %+v", cfg)
	}
	// NLists capped at n; NProbe capped at NLists.
	cfg = Config{NLists: 100, NProbe: 50}.withDefaults(10)
	if cfg.NLists != 10 || cfg.NProbe != 10 {
		t.Errorf("caps: %+v", cfg)
	}
	if isqrt(0) != 0 || isqrt(1) != 1 || isqrt(17) != 5 {
		t.Error("isqrt broken")
	}
}

func TestBuildPartitionsCoverAll(t *testing.T) {
	data := workload.Vectors(3, 500, 16)
	ix, err := Build(data, Config{NLists: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 500 || ix.Dim() != 16 || len(ix.lists) != 16 {
		t.Fatalf("shape: len=%d dim=%d lists=%d", ix.Len(), ix.Dim(), len(ix.lists))
	}
	seen := map[int]bool{}
	for _, list := range ix.lists {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("vector %d in two lists", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 500 {
		t.Fatalf("%d of 500 vectors assigned", len(seen))
	}
}

func TestSearchSelf(t *testing.T) {
	data := workload.Vectors(5, 400, 16)
	ix, err := Build(data, Config{NLists: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, qi := range []int{0, 99, 399} {
		res, err := ix.Search(data.Row(qi), 1, SearchOptions{NProbe: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 1 && res[0].ID == qi {
			hits++
		}
	}
	// Self-search can miss only if the query's own partition is not probed;
	// with the query vector indexed, its partition is the closest centroid
	// by construction, so all must hit.
	if hits != 3 {
		t.Errorf("self-search hits = %d of 3", hits)
	}
}

func TestSearchValidation(t *testing.T) {
	data := workload.Vectors(7, 50, 8)
	ix, _ := Build(data, Config{Seed: 7})
	if _, err := ix.Search(make([]float32, 4), 1, SearchOptions{}); err == nil {
		t.Error("expected dim error")
	}
	if _, err := ix.Search(data.Row(0), 0, SearchOptions{}); err == nil {
		t.Error("expected k error")
	}
}

func TestSearchSorted(t *testing.T) {
	data := workload.Vectors(9, 300, 8)
	ix, _ := Build(data, Config{NLists: 8, Seed: 9})
	res, err := ix.Search(data.Row(5), 10, SearchOptions{NProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("len = %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Sim > res[i-1].Sim {
			t.Fatalf("not sorted: %v", res)
		}
	}
}

// TestRecallGrowsWithNProbe: the IVF recall dial.
func TestRecallGrowsWithNProbe(t *testing.T) {
	data := workload.Vectors(11, 2000, 16)
	queries := workload.Vectors(13, 30, 16)
	ix, err := Build(data, Config{NLists: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	recallAt := func(nprobe int) float64 {
		hits, total := 0, 0
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			exact := exactTop(data, q, 10)
			res, err := ix.Search(q, 10, SearchOptions{NProbe: nprobe})
			if err != nil {
				t.Fatal(err)
			}
			got := map[int]bool{}
			for _, r := range res {
				got[r.ID] = true
			}
			for _, id := range exact {
				if got[id] {
					hits++
				}
				total++
			}
		}
		return float64(hits) / float64(total)
	}
	r1 := recallAt(1)
	r8 := recallAt(8)
	rAll := recallAt(32)
	if r8 < r1 {
		t.Errorf("recall fell with nprobe: %v -> %v", r1, r8)
	}
	if rAll < 0.999 {
		t.Errorf("nprobe=nlists should be exact: %v", rAll)
	}
}

func exactTop(data *mat.Matrix, q []float32, k int) []int {
	nq := vec.Clone(q)
	vec.Normalize(nq)
	type scored struct {
		id  int
		sim float32
	}
	best := make([]scored, 0, k+1)
	for i := 0; i < data.Rows(); i++ {
		s := vec.Dot(vec.KernelSIMD, nq, data.Row(i))
		pos := len(best)
		for pos > 0 && best[pos-1].sim < s {
			pos--
		}
		if pos < k {
			best = append(best, scored{})
			copy(best[pos+1:], best[pos:])
			best[pos] = scored{id: i, sim: s}
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	ids := make([]int, len(best))
	for i, b := range best {
		ids[i] = b.id
	}
	return ids
}

func TestFilterReducesCost(t *testing.T) {
	data := workload.Vectors(17, 1000, 8)
	ix, _ := Build(data, Config{NLists: 8, Seed: 17})
	q := workload.Vectors(18, 1, 8).Row(0)

	before := ix.DistanceCalls()
	if _, err := ix.Search(q, 5, SearchOptions{NProbe: 8}); err != nil {
		t.Fatal(err)
	}
	unfiltered := ix.DistanceCalls() - before

	filter := relational.NewBitmap(1000)
	for i := 0; i < 100; i++ {
		filter.Set(i)
	}
	before = ix.DistanceCalls()
	res, err := ix.Search(q, 5, SearchOptions{NProbe: 8, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	filtered := ix.DistanceCalls() - before
	// IVF checks the bitmap before the distance computation, so a 10%
	// filter cuts probe cost (contrast with HNSW's traversal-bound cost).
	if filtered >= unfiltered/2 {
		t.Errorf("filter did not reduce cost: %d vs %d", filtered, unfiltered)
	}
	for _, r := range res {
		if r.ID >= 100 {
			t.Errorf("filtered-out ID returned: %v", r)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	data := workload.Vectors(19, 300, 8)
	a, _ := Build(data, Config{NLists: 8, Seed: 19})
	b, _ := Build(data, Config{NLists: 8, Seed: 19})
	q := data.Row(3)
	ra, _ := a.Search(q, 5, SearchOptions{NProbe: 4})
	rb, _ := b.Search(q, 5, SearchOptions{NProbe: 4})
	if len(ra) != len(rb) {
		t.Fatal("lengths differ")
	}
	for i := range ra {
		if ra[i].ID != rb[i].ID {
			t.Fatalf("results differ at %d", i)
		}
	}
}
