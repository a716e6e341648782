package ivf

// Live mutation support: posting-list append, compaction remap and
// deleted-fraction re-clustering. An inverted file absorbs inserts cheaply
// — assign the new vector to its nearest coarse centroid and append to
// that partition's posting list — but deletes only tombstone (the
// search-time filter skips them) until the table compacts and Remap drops
// them, so centroids drift away from the live distribution as rows churn.
// Recluster recomputes the coarse quantizer from the live vectors only and
// reassigns every indexed vector, restoring recall without rebuilding the
// index or re-ingesting the table.

import (
	"errors"
	"fmt"

	"ejoin/internal/mat"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/vindex"
)

// nearestCentroid returns the partition whose centroid has the highest
// inner product with the unit-norm vector v.
func nearestCentroid(centroids *mat.Matrix, v []float32) int {
	best, bestSim := 0, float32(-2)
	for c := 0; c < centroids.Rows(); c++ {
		if s := vec.Dot(vec.KernelSIMD, v, centroids.Row(c)); s > bestSim {
			best, bestSim = c, s
		}
	}
	return best
}

// Add implements vindex.MutableIndex: vecs' rows (copied and normalized)
// are assigned to their nearest coarse centroid and appended to that
// partition's posting list, with ids continuing sequentially from Len().
// Centroids are not moved — Recluster restores them when churn warrants.
// Safe to call concurrently with Search.
func (ix *Index) Add(vecs *mat.Matrix) error {
	if vecs == nil || vecs.Rows() == 0 {
		return nil
	}
	if vecs.Cols() != ix.dim {
		return fmt.Errorf("ivf: add dim %d, index dim %d", vecs.Cols(), ix.dim)
	}
	nv := vecs.Clone()
	nv.NormalizeRows()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i := 0; i < nv.Rows(); i++ {
		row := nv.Row(i)
		id := ix.vectors.Rows()
		ix.vectors.Data = append(ix.vectors.Data, row...)
		ix.vectors.RowsN++
		c := nearestCentroid(ix.centroids, row)
		ix.lists[c] = append(ix.lists[c], id)
	}
	return nil
}

// Remap implements mutation.Remapper: it returns a copy of the index
// whose vector i is this index's vector kept[i] (kept ascending), with
// every posting list renumbered to match and the vectors kept does not
// name dropped. Centroids and the search knob carry over, so nothing is
// re-clustered or rebuilt; the receiver is unchanged, and safe to search
// throughout.
func (ix *Index) Remap(kept []int) vindex.MutableIndex {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := ix.vectors.Rows()
	to := make([]int32, n)
	for i := range to {
		to[i] = -1
	}
	vecs := mat.New(len(kept), ix.dim)
	for i, id := range kept {
		if id < n {
			to[id] = int32(i)
			copy(vecs.Row(i), ix.vectors.Row(id))
		}
	}
	lists := make([][]int, len(ix.lists))
	for c, l := range ix.lists {
		out := make([]int, 0, len(l))
		for _, id := range l {
			if to[id] >= 0 {
				out = append(out, int(to[id]))
			}
		}
		lists[c] = out
	}
	nx := &Index{cfg: ix.cfg, dim: ix.dim, centroids: ix.centroids, lists: lists, vectors: vecs}
	nx.distanceCalls.Store(ix.distanceCalls.Load())
	return nx
}

// Recluster recomputes the coarse quantizer over the live vectors only
// (rows set in live) and reassigns every indexed vector to the new
// partitions. Tombstoned vectors stay indexed until the table compacts
// (Remap drops them), but no longer pull centroids toward regions the
// live data has left. The k-means pass runs against an immutable snapshot outside the
// lock; only the final reassignment blocks searches. Vectors appended
// concurrently with the recompute are reassigned under the new centroids
// in that final section, so none are lost.
func (ix *Index) Recluster(live *relational.Bitmap) error {
	ix.mu.RLock()
	n0 := ix.vectors.Rows()
	// Rows 0..n0 are immutable (appends only grow), so the slice header is
	// a stable snapshot even while concurrent Adds proceed.
	snap := ix.vectors.Slice(0, n0)
	cfg := ix.cfg
	ix.mu.RUnlock()

	liveSel := make([]int, 0, n0)
	for i := 0; i < n0; i++ {
		if live == nil || live.Get(i) {
			liveSel = append(liveSel, i)
		}
	}
	if len(liveSel) == 0 {
		return errors.New("ivf: recluster with no live vectors")
	}
	lv := mat.New(len(liveSel), snap.Cols())
	for i, r := range liveSel {
		copy(lv.Row(i), snap.Row(r))
	}
	k := cfg.NLists
	if k > len(liveSel) {
		k = len(liveSel)
	}
	centroids, _ := kmeans(lv, k, cfg.KMeansIters, cfg.Seed)

	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := ix.vectors.Rows() // may exceed n0: rows appended during k-means
	lists := make([][]int, k)
	for i := 0; i < n; i++ {
		c := nearestCentroid(centroids, ix.vectors.Row(i))
		lists[c] = append(lists[c], i)
	}
	ix.centroids = centroids
	ix.lists = lists
	ix.cfg.NLists = k
	if ix.cfg.NProbe > k {
		ix.cfg.NProbe = k
	}
	return nil
}
