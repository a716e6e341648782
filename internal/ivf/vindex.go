package ivf

import (
	"ejoin/internal/relational"
	"ejoin/internal/vindex"
)

// TopK implements vindex.Index: beam maps to nprobe (partitions scanned;
// <=0 uses the index default). See Search for semantics.
func (ix *Index) TopK(q []float32, k, beam int, filter *relational.Bitmap) ([]vindex.Hit, error) {
	res, err := ix.Search(q, k, SearchOptions{NProbe: beam, Filter: filter})
	if err != nil {
		return nil, err
	}
	hits := make([]vindex.Hit, len(res))
	for i, r := range res {
		hits[i] = vindex.Hit{ID: r.ID, Sim: r.Sim}
	}
	return hits, nil
}

var _ vindex.Index = (*Index)(nil)
