package ivf

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/mat"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/vindex"
)

// PQIndex is the PQ-compressed variant of the IVF index: the same k-means
// coarse partitioning, but posting lists hold M-byte product-quantization
// codes instead of float32 vectors. Codes encode the residual of each
// vector against its list's coarse centroid (the FAISS IVFPQ design):
// residuals are small and locally clustered, so the shared codebook
// captures them far more precisely than raw vectors. For inner-product
// similarity the decomposition q·x = q·centroid + q·residual means one
// shared ADC lookup table per query still suffices — probes score
// candidates with M table lookups plus the list's already-computed
// centroid similarity, no decode — then an exact rerank pass over the
// top-C candidates against caller-attached float32 vectors restores
// recall. Resident index storage is the codes plus the codebook and
// coarse centroids — 4-16× below IVF-Flat's normalized vector copy —
// while the rerank pass reads the base table's vectors, which the engine
// keeps resident anyway.
type PQIndex struct {
	cfg       Config
	dim       int
	centroids *mat.Matrix
	lists     [][]int
	codes     []byte // Len() × book.M(), indexed by vector id
	book      *quant.Codebook

	mu sync.RWMutex
	// rerank, when attached, holds the exact unit-norm vectors the rerank
	// pass reads. It aliases caller storage.
	rerank *mat.Matrix
	// rerankC is the default exact-rerank candidate pool for searches
	// without an explicit RerankC (0 means DefaultRerankFactor·k). The
	// recall-SLO tuner adjusts it via SetRerankC.
	rerankC int

	distanceCalls atomic.Int64
	rerankNanos   atomic.Int64
}

// DefaultRerankFactor sets the rerank candidate pool to factor·k when
// PQSearchOptions.RerankC is unset.
const DefaultRerankFactor = 4

// BuildPQ constructs a PQ-compressed index over the rows of data: coarse
// k-means into cfg partitions, then a product quantizer trained on the
// per-vector residuals against their assigned coarse centroids, and one
// M-byte residual code per row. The float32 vectors are not retained.
func BuildPQ(data *mat.Matrix, cfg Config, pqcfg quant.PQConfig) (*PQIndex, error) {
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
	// Residualize in place: vecs row i becomes x_i - centroid(assign_i).
	for id, c := range assign {
		row := vecs.Row(id)
		cent := centroids.Row(c)
		for j := range row {
			row[j] -= cent[j]
		}
	}
	book, err := quant.TrainPQ(vecs, pqcfg)
	if err != nil {
		return nil, err
	}
	codes, err := book.EncodeAll(vecs)
	if err != nil {
		return nil, err
	}
	return &PQIndex{
		cfg:       cfg,
		dim:       data.Cols(),
		centroids: centroids,
		lists:     lists,
		codes:     codes,
		book:      book,
	}, nil
}

// Len returns the number of indexed vectors.
func (ix *PQIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.codes) / ix.book.M()
}

// Dim returns the vector dimensionality.
func (ix *PQIndex) Dim() int { return ix.dim }

// NLists returns the number of partitions.
func (ix *PQIndex) NLists() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.lists)
}

// DistanceCalls returns the comparisons performed by searches so far
// (coarse centroid dots + ADC scores + rerank dots).
func (ix *PQIndex) DistanceCalls() int64 { return ix.distanceCalls.Load() }

// RerankNanos returns cumulative wall time spent in the exact rerank
// pass. Join operators read the before/after delta to attribute rerank
// time to one probe batch (the same pattern as DistanceCalls).
func (ix *PQIndex) RerankNanos() int64 { return ix.rerankNanos.Load() }

// SizeBytes is the resident index storage: codes, codebook, and coarse
// centroids. The attached rerank vectors are excluded — they alias the
// base table's storage, not the index's.
func (ix *PQIndex) SizeBytes() int64 {
	return int64(len(ix.codes)) + ix.book.SizeBytes() + ix.centroids.SizeBytes()
}

// SetRerankC changes the default rerank pool (floored at 1; the search
// path still widens it to at least k) and returns the applied value.
// Safe against concurrent searches — this is the knob the recall-SLO
// tuner adjusts.
func (ix *PQIndex) SetRerankC(c int) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if c < 1 {
		c = 1
	}
	ix.rerankC = c
	return c
}

// Knob identifies the rerank pool as the index's tunable knob. An unset
// pool reports the DefaultRerankFactor·10 starting point so the tuner
// has a concrete value to step from.
func (ix *PQIndex) Knob() (string, int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	c := ix.rerankC
	if c <= 0 {
		c = DefaultRerankFactor * 10
	}
	return "rerank_c", c
}

// SetKnob applies a new rerank pool (vindex.TunableIndex).
func (ix *PQIndex) SetKnob(v int) int { return ix.SetRerankC(v) }

// AttachRerank attaches the exact vectors the rerank pass scores against:
// one unit-norm row per indexed vector, in id order (the same data the
// index was built over, normalized). The matrix is referenced, not
// copied.
func (ix *PQIndex) AttachRerank(m *mat.Matrix) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if n := len(ix.codes) / ix.book.M(); m.Rows() != n {
		return fmt.Errorf("ivf: rerank matrix has %d rows, index has %d vectors", m.Rows(), n)
	}
	if m.Cols() != ix.dim {
		return fmt.Errorf("ivf: rerank matrix dim %d, index dim %d", m.Cols(), ix.dim)
	}
	if !m.RowsNormalized(1e-3) {
		return errors.New("ivf: rerank matrix rows must be unit-norm (NormalizeRows first)")
	}
	ix.rerank = m
	return nil
}

// PQSearchOptions tunes a compressed probe.
type PQSearchOptions struct {
	// NProbe overrides the number of partitions scanned (index default
	// if <=0).
	NProbe int
	// Filter restricts results to set rows; like IVF-Flat, the bitmap is
	// checked before scoring, so filtering reduces probe cost.
	Filter *relational.Bitmap
	// RerankC is the ADC candidate pool the exact rerank pass rescores
	// (<=0 means DefaultRerankFactor·k). Ignored when no rerank vectors
	// are attached.
	RerankC int
}

// Search returns the (approximately) k most similar indexed vectors,
// sorted descending. With rerank vectors attached, similarities are exact
// dot products of the top-C ADC candidates; otherwise they are ADC
// estimates.
func (ix *PQIndex) Search(q []float32, k int, opts PQSearchOptions) ([]Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("ivf: query dim %d, index dim %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, errors.New("ivf: k must be positive")
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nprobe := opts.NProbe
	if nprobe <= 0 {
		nprobe = ix.cfg.NProbe
	}
	if nprobe > len(ix.lists) {
		nprobe = len(ix.lists)
	}
	pool := k
	if ix.rerank != nil {
		pool = opts.RerankC
		if pool <= 0 {
			pool = ix.rerankC // under the lock: the tuner may adjust it
		}
		if pool <= 0 {
			pool = DefaultRerankFactor * k
		}
		if pool < k {
			pool = k
		}
	}
	nq := vec.Clone(q)
	vec.Normalize(nq)

	// Rank coarse centroids; scan the nprobe best lists by ADC score.
	cands := make([]scoredList, len(ix.lists))
	for c := range ix.lists {
		ix.distanceCalls.Add(1)
		cands[c] = scoredList{c: c, sim: vec.Dot(vec.KernelSIMD, nq, ix.centroids.Row(c))}
	}
	topNListsDesc(cands, nprobe)

	tab := make([]float32, ix.book.ADCTableSize())
	if err := ix.book.ADCTable(nq, tab); err != nil {
		return nil, err
	}
	m, kk := ix.book.M(), ix.book.K()
	res := &minHeap{}
	heap.Init(res)
	for _, sc := range cands[:nprobe] {
		for _, id := range ix.lists[sc.c] {
			if opts.Filter != nil && !opts.Filter.Get(id) {
				continue
			}
			ix.distanceCalls.Add(1)
			// q·x = q·centroid + q·residual: the list's centroid similarity
			// plus the ADC estimate of the residual term.
			s := sc.sim + quant.ADCScore(tab, kk, ix.codes[id*m:(id+1)*m])
			if res.Len() < pool {
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
	if ix.rerank == nil {
		if len(out) > k {
			out = out[:k]
		}
		return out, nil
	}
	// Exact rerank: rescore the ADC candidate pool against the attached
	// float32 vectors, then keep the true top-k.
	rerankStart := time.Now()
	for i := range out {
		ix.distanceCalls.Add(1)
		out[i].Sim = vec.Dot(vec.KernelSIMD, nq, ix.rerank.Row(out[i].ID))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].ID < out[j].ID
	})
	ix.rerankNanos.Add(time.Since(rerankStart).Nanoseconds())
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// TopK implements vindex.Index: beam maps to nprobe. Rerank (when
// attached) uses the default candidate pool.
func (ix *PQIndex) TopK(q []float32, k, beam int, filter *relational.Bitmap) ([]vindex.Hit, error) {
	res, err := ix.Search(q, k, PQSearchOptions{NProbe: beam, Filter: filter})
	if err != nil {
		return nil, err
	}
	hits := make([]vindex.Hit, len(res))
	for i, r := range res {
		hits[i] = vindex.Hit{ID: r.ID, Sim: r.Sim}
	}
	return hits, nil
}

var _ vindex.Index = (*PQIndex)(nil)
var _ vindex.TunableIndex = (*PQIndex)(nil)
