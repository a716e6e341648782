package hnsw

import (
	"errors"
	"fmt"

	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// SearchOptions tunes a probe.
type SearchOptions struct {
	// Ef is the beam width for this probe; <=0 uses the index default.
	// Recall grows with Ef at the price of more traversal.
	Ef int
	// Filter restricts the result set to rows whose bit is set, with
	// vector-database pre-filter semantics: excluded nodes are still
	// traversed (and paid for) but never returned.
	Filter *relational.Bitmap
}

// Search returns the (approximately) k most similar indexed vectors to q,
// sorted by descending similarity. Top-k must be specified — the
// index-join flexibility limitation Table I records.
func (ix *Index) Search(q []float32, k int, opts SearchOptions) ([]Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), ix.dim)
	}
	if k <= 0 {
		return nil, errors.New("hnsw: k must be positive")
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.entry < 0 {
		return nil, nil
	}
	ef := opts.Ef
	if ef <= 0 {
		ef = ix.cfg.EfSearch
	}
	if ef < k {
		ef = k
	}
	nq := make([]float32, ix.dim)
	vec.NormalizeInto(nq, q)

	ep := ix.entry
	for l := ix.maxLvl; l >= 1; l-- {
		ep = ix.greedyClosest(nq, ep, l)
	}
	res := ix.searchLayer(nq, []int{ep}, ef, 0, opts.Filter)
	if len(res) > k {
		res = res[:k]
	}
	return res, nil
}

// Recall computes recall@k of the index against exact exhaustive top-k over
// the same data for the given queries — the accuracy axis of Table I.
func Recall(ix *Index, data [][]float32, queries [][]float32, k int, opts SearchOptions) (float64, error) {
	if len(queries) == 0 {
		return 0, errors.New("hnsw: no queries")
	}
	var hit, total int
	for _, q := range queries {
		nq := vec.Clone(q)
		vec.Normalize(nq)
		exact := exactTopK(data, nq, k)
		approx, err := ix.Search(q, k, opts)
		if err != nil {
			return 0, err
		}
		got := map[int]bool{}
		for _, r := range approx {
			got[r.ID] = true
		}
		for _, id := range exact {
			if got[id] {
				hit++
			}
			total++
		}
	}
	return float64(hit) / float64(total), nil
}

func exactTopK(data [][]float32, nq []float32, k int) []int {
	type scored struct {
		id  int
		sim float32
	}
	best := make([]scored, 0, k+1)
	for i, v := range data {
		nv := vec.Clone(v)
		vec.Normalize(nv)
		s := vec.Dot(vec.KernelSIMD, nq, nv)
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
