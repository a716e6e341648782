package ivf

import (
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

func TestAddThenSearchFindsNew(t *testing.T) {
	data := workload.Vectors(31, 200, 16)
	ix, err := Build(data, Config{NLists: 16, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	added := workload.Vectors(32, 50, 16)
	if err := ix.Add(added); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 250 {
		t.Fatalf("len after add = %d, want 250", ix.Len())
	}
	// Every appended vector is its own nearest neighbor when all lists are
	// probed.
	for _, i := range []int{0, 25, 49} {
		res, err := ix.Search(added.Row(i), 1, SearchOptions{NProbe: 16})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != 200+i {
			t.Fatalf("added vector %d: search returned %v", i, res)
		}
	}
	if err := ix.Add(workload.Vectors(33, 1, 8)); err == nil {
		t.Fatal("dim-mismatched add accepted")
	}
}

// exactTopLive is brute-force top-k over the live subset only.
func exactTopLive(data *mat.Matrix, live *relational.Bitmap, q []float32, k int) map[int]bool {
	nq := vec.Clone(q)
	vec.Normalize(nq)
	type scored struct {
		id  int
		sim float32
	}
	var best []scored
	for i := 0; i < data.Rows(); i++ {
		if !live.Get(i) {
			continue
		}
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
	ids := make(map[int]bool, len(best))
	for _, b := range best {
		ids[b.id] = true
	}
	return ids
}

// TestReclusterRestoresRecall models the churn the mutation layer
// generates: the index is built over one distribution (a tight off-center
// cluster), that data is then wholly tombstoned, and a different
// distribution is appended. The stale centroids — all trained on the dead
// cluster — partition the live data badly. Recluster over the live rows
// must restore recall@10 to >= 0.95 without a rebuild.
func TestReclusterRestoresRecall(t *testing.T) {
	const dim, nOld, nNew = 16, 600, 600
	old := workload.Vectors(21, nOld, dim)
	for i := 0; i < nOld; i++ {
		old.Row(i)[0] += 4 // concentrate near the +e0 pole
	}
	ix, err := Build(old, Config{NLists: 32, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	fresh := workload.Vectors(22, nNew, dim)
	if err := ix.Add(fresh); err != nil {
		t.Fatal(err)
	}

	// All original rows dead, all appended rows live.
	live := relational.NewBitmap(nOld + nNew)
	for i := 0; i < nNew; i++ {
		live.Set(nOld + i)
	}
	all := mat.New(nOld+nNew, dim)
	copy(all.Data[:nOld*dim], old.Data)
	copy(all.Data[nOld*dim:], fresh.Data)

	queries := workload.Vectors(23, 30, dim)
	recallAt := func(nprobe int) float64 {
		hits, total := 0, 0
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			exact := exactTopLive(all, live, q, 10)
			res, err := ix.Search(q, 10, SearchOptions{NProbe: nprobe, Filter: live})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if exact[r.ID] {
					hits++
				}
			}
			total += len(exact)
		}
		return float64(hits) / float64(total)
	}

	// nprobe=16 of 32: the setting where a from-scratch rebuild over the
	// live rows scores ~0.98 — re-clustering must get within reach of that
	// (>= 0.95), not merely improve on the drifted state.
	before := recallAt(16)
	if err := ix.Recluster(live); err != nil {
		t.Fatal(err)
	}
	after := recallAt(16)
	t.Logf("recall@10 nprobe=16: before recluster %.3f, after %.3f", before, after)
	if after < 0.95 {
		t.Errorf("recall after recluster %.3f, want >= 0.95", after)
	}
	if after < before {
		t.Errorf("recluster reduced recall: %.3f -> %.3f", before, after)
	}

	// Reassignment must cover every physical id exactly once (dead rows
	// stay indexed — ids are dense).
	seen := map[int]bool{}
	for _, list := range ix.lists {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("vector %d in two lists after recluster", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != nOld+nNew {
		t.Fatalf("%d of %d vectors assigned after recluster", len(seen), nOld+nNew)
	}
}

// Remap follows a compaction: searching the remapped index returns the
// kept vectors the original finds when filtered to them, renumbered, at
// the same similarities; the original is unchanged, and the remapped copy
// keeps absorbing appends.
func TestRemapMatchesFilteredSearch(t *testing.T) {
	data := workload.Vectors(41, 300, 16)
	ix, err := Build(data, Config{NLists: 12, Seed: 41, NProbe: 4})
	if err != nil {
		t.Fatal(err)
	}
	var kept []int
	live := relational.NewBitmap(300)
	for i := 0; i < 300; i++ {
		if i%3 != 1 {
			kept = append(kept, i)
			live.Set(i)
		}
	}
	nx := ix.Remap(kept).(*Index)
	if nx.Len() != len(kept) || ix.Len() != 300 {
		t.Fatalf("remapped len %d (want %d), original %d (want 300)", nx.Len(), len(kept), ix.Len())
	}
	if _, n := nx.Knob(); n != 4 {
		t.Fatalf("remapped nprobe %d, want 4", n)
	}
	queries := workload.Vectors(42, 20, 16)
	for q := 0; q < queries.Rows(); q++ {
		want, err := ix.Search(queries.Row(q), 5, SearchOptions{Filter: live})
		if err != nil {
			t.Fatal(err)
		}
		got, err := nx.Search(queries.Row(q), 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d hits, want %d", q, len(got), len(want))
		}
		for i := range got {
			if kept[got[i].ID] != want[i].ID || got[i].Sim != want[i].Sim {
				t.Fatalf("query %d hit %d: remapped %d (row %d) at %v, want row %d at %v",
					q, i, got[i].ID, kept[got[i].ID], got[i].Sim, want[i].ID, want[i].Sim)
			}
		}
	}
	if err := nx.Add(workload.Vectors(43, 5, 16)); err != nil || nx.Len() != len(kept)+5 || ix.Len() != 300 {
		t.Fatalf("append after remap: err %v, len %d, original %d", err, nx.Len(), ix.Len())
	}
}
