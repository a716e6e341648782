// Package ivf implements an IVF-Flat (inverted file) vector index: k-means
// coarse quantization into nlist partitions, exhaustive scan of the nprobe
// closest partitions at query time. It is the second classic vector-
// database access path besides HNSW (the paper cites FAISS, Johnson et
// al., whose workhorse this is), with a different trade-off: cheap
// construction and predictable sequential scans per partition, versus
// HNSW's expensive build and logarithmic random-access probes.
//
// Pre-filter semantics differ from graph indexes and are documented on
// SearchOptions: list scans skip filtered-out vectors before the distance
// computation, so relational filtering does reduce IVF probe cost —
// another reason access path selection is selectivity-driven.
package ivf

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"ejoin/internal/mat"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// Config holds construction parameters.
type Config struct {
	// NLists is the number of k-means partitions; <=0 picks ~sqrt(n).
	NLists int
	// KMeansIters bounds Lloyd iterations (default 10).
	KMeansIters int
	// Seed drives centroid initialization.
	Seed int64
	// NProbe is the default number of partitions scanned per query
	// (default 8, capped at NLists).
	NProbe int
}

func (c Config) withDefaults(n int) Config {
	if c.NLists <= 0 {
		c.NLists = isqrt(n)
	}
	if c.NLists > n {
		c.NLists = n
	}
	if c.NLists < 1 {
		c.NLists = 1
	}
	if c.KMeansIters <= 0 {
		c.KMeansIters = 10
	}
	if c.NProbe <= 0 {
		c.NProbe = 8
	}
	if c.NProbe > c.NLists {
		c.NProbe = c.NLists
	}
	return c
}

func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x := 1
	for x*x < n {
		x++
	}
	return x
}

// Result is one search hit.
type Result struct {
	ID  int
	Sim float32
}

// Index is a built IVF-Flat index over unit-norm vectors. Concurrent
// searches are safe.
type Index struct {
	cfg       Config
	dim       int
	centroids *mat.Matrix
	lists     [][]int
	vectors   *mat.Matrix

	mu sync.RWMutex

	distanceCalls atomic.Int64
}

// Build constructs the index over the rows of data (copied and normalized).
func Build(data *mat.Matrix, cfg Config) (*Index, error) {
	n := data.Rows()
	if n == 0 {
		return nil, errors.New("ivf: cannot build over empty input")
	}
	cfg = cfg.withDefaults(n)
	vecs := data.Clone()
	vecs.NormalizeRows()

	centroids, assign := kmeans(vecs, cfg.NLists, cfg.KMeansIters, cfg.Seed)
	lists := make([][]int, cfg.NLists)
	for id, c := range assign {
		lists[c] = append(lists[c], id)
	}
	return &Index{
		cfg:       cfg,
		dim:       data.Cols(),
		centroids: centroids,
		lists:     lists,
		vectors:   vecs,
	}, nil
}

// kmeans runs Lloyd's algorithm with inner-product assignment over
// unit-norm rows (spherical k-means). Returns centroids and assignments.
func kmeans(data *mat.Matrix, k, iters int, seed int64) (*mat.Matrix, []int) {
	n, d := data.Rows(), data.Cols()
	rng := rand.New(rand.NewSource(seed))
	centroids := mat.New(k, d)
	// Initialize from distinct random points.
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		copy(centroids.Row(c), data.Row(perm[c%n]))
	}
	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestSim := 0, float32(-2)
			ri := data.Row(i)
			for c := 0; c < k; c++ {
				if s := vec.Dot(vec.KernelSIMD, ri, centroids.Row(c)); s > bestSim {
					best, bestSim = c, s
				}
			}
			if assign[i] != best || it == 0 {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids as normalized means.
		counts := make([]int, k)
		next := mat.New(k, d)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			vec.AXPY(1, data.Row(i), next.Row(c))
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster from a random point.
				copy(next.Row(c), data.Row(rng.Intn(n)))
			}
			vec.Normalize(next.Row(c))
		}
		centroids = next
		if !changed {
			break
		}
	}
	return centroids, assign
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.vectors.Rows()
}

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// DistanceCalls returns the comparisons performed by searches so far.
func (ix *Index) DistanceCalls() int64 { return ix.distanceCalls.Load() }

// SearchOptions tunes a probe.
type SearchOptions struct {
	// NProbe overrides the number of partitions scanned (index default
	// if <=0; more partitions raise recall and cost).
	NProbe int
	// Filter restricts results to set rows. Unlike HNSW's traversal-bound
	// pre-filter, IVF checks the bitmap before computing distances, so
	// filtering reduces probe cost proportionally.
	Filter *relational.Bitmap
}

// Search returns the (approximately) k most similar indexed vectors,
// sorted descending by similarity.
func (ix *Index) Search(q []float32, k int, opts SearchOptions) ([]Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("ivf: query dim %d, index dim %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, errors.New("ivf: k must be positive")
	}
	nq := vec.Clone(q)
	vec.Normalize(nq)

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nprobe := opts.NProbe
	if nprobe <= 0 {
		nprobe = ix.cfg.NProbe // under the lock: a re-cluster may adjust it
	}
	if nprobe > len(ix.lists) {
		nprobe = len(ix.lists)
	}

	// Rank centroids by similarity; scan the nprobe best lists.
	cands := make([]scoredList, len(ix.lists))
	for c := range ix.lists {
		ix.distanceCalls.Add(1)
		cands[c] = scoredList{c: c, sim: vec.Dot(vec.KernelSIMD, nq, ix.centroids.Row(c))}
	}
	topNListsDesc(cands, nprobe)

	res := &minHeap{}
	heap.Init(res)
	for _, sc := range cands[:nprobe] {
		for _, id := range ix.lists[sc.c] {
			if opts.Filter != nil && !opts.Filter.Get(id) {
				continue
			}
			ix.distanceCalls.Add(1)
			s := vec.Dot(vec.KernelSIMD, nq, ix.vectors.Row(id))
			if res.Len() < k {
				heap.Push(res, Result{ID: id, Sim: s})
			} else if s > (*res)[0].Sim {
				(*res)[0] = Result{ID: id, Sim: s}
				heap.Fix(res, 0)
			}
		}
	}
	out := make([]Result, res.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(res).(Result)
	}
	return out, nil
}

// scoredList pairs a partition with its centroid similarity to the query.
type scoredList struct {
	c   int
	sim float32
}

// topNListsDesc moves the n highest-similarity entries to the front
// (selection over the centroid count, which is small).
func topNListsDesc(s []scoredList, n int) {
	for i := 0; i < n && i < len(s); i++ {
		best := i
		for j := i + 1; j < len(s); j++ {
			if s[j].sim > s[best].sim {
				best = j
			}
		}
		s[i], s[best] = s[best], s[i]
	}
}

// minHeap keeps the current k best with the worst on top.
type minHeap []Result

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i].Sim < h[j].Sim }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *minHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
