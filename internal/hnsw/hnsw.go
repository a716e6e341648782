// Package hnsw implements the Hierarchical Navigable Small World graph
// index (Malkov & Yashunin, TPAMI 2020) from scratch — the vector-database
// access path the paper compares its scan-based tensor join against
// (Section VI-E, Figures 15-17). The paper uses Milvus's HNSW with two
// configurations: Hi (M=64, efConstruction=512) and Lo (M=32,
// efConstruction=256); ConfigHi and ConfigLo reproduce them.
//
// Characteristics that matter to the join study are preserved:
//
//   - probes avoid exhaustive comparison at the price of approximate
//     results and random access patterns (graph traversal),
//   - the distance function is fixed at construction time (cosine here,
//     via unit-norm vectors and inner product),
//   - top-k must be specified per probe,
//   - relational pre-filtering excludes nodes from the result set on the
//     fly but still pays the traversal cost.
package hnsw

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// Config holds HNSW construction and search parameters.
type Config struct {
	// M is the maximum number of bidirectional links per node per layer
	// above 0; layer 0 allows 2*M.
	M int
	// EfConstruction is the candidate-list width during insertion.
	EfConstruction int
	// EfSearch is the default candidate-list width during search; raise
	// for recall, lower for speed. Per-query override via SearchOptions.
	EfSearch int
	// Seed drives level assignment (deterministic builds).
	Seed int64
}

// ConfigHi mirrors the paper's higher-recall index: M=64, efConstruction=512.
func ConfigHi() Config {
	return Config{M: 64, EfConstruction: 512, EfSearch: 128, Seed: 42}
}

// ConfigLo mirrors the paper's lower-recall index: M=32, efConstruction=256.
func ConfigLo() Config {
	return Config{M: 32, EfConstruction: 256, EfSearch: 64, Seed: 42}
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	return c
}

// Result is one search hit.
type Result struct {
	// ID is the insertion-order identifier of the vector.
	ID int
	// Sim is the cosine similarity to the query (higher is closer).
	Sim float32
}

// Index is an HNSW graph over unit-norm vectors with cosine similarity.
// Concurrent searches are safe; Insert must not run concurrently with
// anything else.
type Index struct {
	cfg     Config
	dim     int
	mult    float64
	rng     *rand.Rand
	entry   int
	maxLvl  int
	vectors []float32 // row-major normalized copies
	levels  []int
	// links[l][id] is the adjacency list of id at layer l.
	links []map[int][]int

	mu sync.RWMutex

	// distanceCalls counts vector comparisons, the index-side analogue of
	// the scan's FLOP count (used to validate the cost model's Iprobe).
	distanceCalls atomic.Int64
}

// ErrDimMismatch is returned when a vector of wrong dimensionality is used.
var ErrDimMismatch = errors.New("hnsw: dimension mismatch")

// New creates an empty index for dim-dimensional vectors.
func New(dim int, cfg Config) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("hnsw: dimension must be positive, got %d", dim)
	}
	cfg = cfg.withDefaults()
	return &Index{
		cfg:    cfg,
		dim:    dim,
		mult:   1 / math.Log(float64(cfg.M)),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		entry:  -1,
		maxLvl: -1,
	}, nil
}

// Build creates an index over the given vectors (inserted in order, so IDs
// are input offsets).
func Build(vectors [][]float32, cfg Config) (*Index, error) {
	if len(vectors) == 0 {
		return nil, errors.New("hnsw: cannot build over empty input")
	}
	idx, err := New(len(vectors[0]), cfg)
	if err != nil {
		return nil, err
	}
	for i, v := range vectors {
		if _, err := idx.Insert(v); err != nil {
			return nil, fmt.Errorf("hnsw: inserting vector %d: %w", i, err)
		}
	}
	return idx, nil
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.levels) }

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// DistanceCalls returns the number of vector comparisons performed since
// construction (inserts + searches).
func (ix *Index) DistanceCalls() int64 {
	return ix.distanceCalls.Load()
}

func (ix *Index) vector(id int) []float32 {
	return ix.vectors[id*ix.dim : (id+1)*ix.dim : (id+1)*ix.dim]
}

// sim computes cosine similarity between the query and node id
// (both unit-norm, so inner product).
func (ix *Index) sim(q []float32, id int) float32 {
	ix.distanceCalls.Add(1)
	return vec.Dot(vec.KernelSIMD, q, ix.vector(id))
}

// randomLevel draws the node level from the standard HNSW geometric
// distribution.
func (ix *Index) randomLevel() int {
	u := ix.rng.Float64()
	for u == 0 {
		u = ix.rng.Float64()
	}
	return int(-math.Log(u) * ix.mult)
}

// Insert adds v (copied and normalized) and returns its ID.
func (ix *Index) Insert(v []float32) (int, error) {
	if len(v) != ix.dim {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(v), ix.dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()

	id := len(ix.levels)
	nv := make([]float32, ix.dim)
	vec.NormalizeInto(nv, v)
	ix.vectors = append(ix.vectors, nv...)

	level := ix.randomLevel()
	ix.levels = append(ix.levels, level)
	for len(ix.links) <= level {
		ix.links = append(ix.links, make(map[int][]int))
	}

	if ix.entry < 0 {
		ix.entry = id
		ix.maxLvl = level
		return id, nil
	}

	q := nv
	ep := ix.entry
	// Greedy descent on layers above the node's level.
	for l := ix.maxLvl; l > level; l-- {
		ep = ix.greedyClosest(q, ep, l)
	}
	// Insert with efConstruction-wide beam on the remaining layers.
	for l := minInt(level, ix.maxLvl); l >= 0; l-- {
		cands := ix.searchLayer(q, []int{ep}, ix.cfg.EfConstruction, l, nil)
		maxConn := ix.cfg.M
		if l == 0 {
			maxConn = 2 * ix.cfg.M
		}
		selected := ix.selectNeighbors(q, cands, ix.cfg.M)
		ix.links[l][id] = idsOf(selected)
		for _, n := range selected {
			ix.links[l][n.ID] = append(ix.links[l][n.ID], id)
			if len(ix.links[l][n.ID]) > maxConn {
				ix.shrink(n.ID, l, maxConn)
			}
		}
		if len(selected) > 0 {
			ep = selected[0].ID
		}
	}
	if level > ix.maxLvl {
		ix.maxLvl = level
		ix.entry = id
	}
	return id, nil
}

// greedyClosest walks layer l greedily toward q from ep.
func (ix *Index) greedyClosest(q []float32, ep, l int) int {
	best := ep
	bestSim := ix.sim(q, ep)
	for {
		improved := false
		for _, n := range ix.links[l][best] {
			if s := ix.sim(q, n); s > bestSim {
				best, bestSim = n, s
				improved = true
			}
		}
		if !improved {
			return best
		}
	}
}

// searchLayer is the standard HNSW beam search at one layer: maintains a
// candidate max-heap (closest first) and a result min-heap of width ef.
// filter, if non-nil, excludes nodes from the *results* but not from
// traversal (vector-database pre-filter semantics).
func (ix *Index) searchLayer(q []float32, eps []int, ef, l int, filter *relational.Bitmap) []Result {
	visited := map[int]bool{}
	cand := &simMaxHeap{}
	res := &simMinHeap{}
	heap.Init(cand)
	heap.Init(res)

	push := func(id int) {
		if visited[id] {
			return
		}
		visited[id] = true
		s := ix.sim(q, id)
		// Traversal uses the node regardless of the filter...
		heap.Push(cand, Result{ID: id, Sim: s})
		// ...but only qualifying nodes enter the result beam.
		if filter == nil || filter.Get(id) {
			heap.Push(res, Result{ID: id, Sim: s})
			if res.Len() > ef {
				heap.Pop(res)
			}
		}
	}
	for _, ep := range eps {
		push(ep)
	}
	for cand.Len() > 0 {
		c := heap.Pop(cand).(Result)
		if res.Len() >= ef {
			worst := (*res)[0].Sim
			if c.Sim < worst {
				break
			}
		}
		for _, n := range ix.links[l][c.ID] {
			push(n)
		}
	}
	out := make([]Result, res.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(res).(Result)
	}
	return out
}

// selectNeighbors applies the HNSW neighbor-selection heuristic: prefer
// candidates that are closer to q than to any already-selected neighbor,
// which keeps the graph navigable instead of clustering links.
func (ix *Index) selectNeighbors(q []float32, cands []Result, m int) []Result {
	if len(cands) <= m {
		return cands
	}
	selected := make([]Result, 0, m)
	for _, c := range cands { // cands sorted descending by sim
		if len(selected) == m {
			break
		}
		ok := true
		for _, s := range selected {
			if ix.simBetween(c.ID, s.ID) > c.Sim {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, c)
		}
	}
	// Backfill with remaining closest if the heuristic was too strict.
	if len(selected) < m {
		chosen := map[int]bool{}
		for _, s := range selected {
			chosen[s.ID] = true
		}
		for _, c := range cands {
			if len(selected) == m {
				break
			}
			if !chosen[c.ID] {
				selected = append(selected, c)
			}
		}
	}
	return selected
}

func (ix *Index) simBetween(a, b int) float32 {
	ix.distanceCalls.Add(1)
	return vec.Dot(vec.KernelSIMD, ix.vector(a), ix.vector(b))
}

// shrink reapplies neighbor selection to node id at layer l so its
// adjacency stays within maxConn.
func (ix *Index) shrink(id, l, maxConn int) {
	neigh := ix.links[l][id]
	cands := make([]Result, 0, len(neigh))
	for _, n := range neigh {
		cands = append(cands, Result{ID: n, Sim: ix.simBetween(id, n)})
	}
	sortResultsDesc(cands)
	ix.links[l][id] = idsOf(ix.selectNeighbors(ix.vector(id), cands, maxConn))
}

func idsOf(rs []Result) []int {
	ids := make([]int, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

func sortResultsDesc(rs []Result) {
	// Insertion sort: candidate lists are short (≤ efConstruction).
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Sim > rs[j-1].Sim; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// simMaxHeap pops the highest-similarity element first (candidates).
type simMaxHeap []Result

func (h simMaxHeap) Len() int           { return len(h) }
func (h simMaxHeap) Less(i, j int) bool { return h[i].Sim > h[j].Sim }
func (h simMaxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *simMaxHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *simMaxHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// simMinHeap pops the lowest-similarity element first (result beam).
type simMinHeap []Result

func (h simMinHeap) Len() int           { return len(h) }
func (h simMinHeap) Less(i, j int) bool { return h[i].Sim < h[j].Sim }
func (h simMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *simMinHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *simMinHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
