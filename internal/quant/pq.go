package quant

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ejoin/internal/mat"
)

// Product quantization (Jégou et al.; the compression workhorse of the
// FAISS line the paper cites). A d-dimensional vector splits into M
// contiguous subvectors of d/M dimensions; each subvector is encoded as
// the id of its nearest centroid among K ≤ 256 trained per subspace, so
// one vector costs M bytes instead of 4d. Similarity against a float32
// query is computed asymmetrically (ADC): precompute per query the M×K
// table of sub-dot-products query_m · centroid_mc, then score any encoded
// vector with M table lookups and adds — no decode on the scan path.

// defaultPQM is the default number of subspaces (8 bytes per vector).
const defaultPQM = 8

// PQConfig holds product-quantizer training parameters.
type PQConfig struct {
	// M is the number of subspaces (default 8). If M does not divide the
	// dimensionality it is lowered to the largest divisor ≤ M.
	M int
	// Centroids is the per-subspace codebook size (default and maximum
	// 256 — codes are single bytes; clamped to the training-set size).
	Centroids int
	// KMeansIters bounds Lloyd iterations per subspace (default 15).
	KMeansIters int
	// Seed drives centroid initialization.
	Seed int64
}

func (c PQConfig) withDefaults(dim, n int) (PQConfig, error) {
	if dim <= 0 {
		return c, errors.New("quant: pq requires positive dimensionality")
	}
	if c.M <= 0 {
		c.M = defaultPQM
	}
	if c.M > dim {
		c.M = dim
	}
	for dim%c.M != 0 {
		c.M--
	}
	if c.Centroids <= 0 || c.Centroids > 256 {
		c.Centroids = 256
	}
	if c.Centroids > n {
		c.Centroids = n
	}
	if c.Centroids < 1 {
		return c, errors.New("quant: pq requires a non-empty training set")
	}
	if c.KMeansIters <= 0 {
		c.KMeansIters = 15
	}
	return c, nil
}

// Codebook is a trained product quantizer.
type Codebook struct {
	dim int
	m   int // subspaces
	k   int // centroids per subspace
	sub int // dims per subspace (dim/m)
	// centroids is m × k × sub, flattened: subspace-major, then centroid.
	centroids []float32
	// maxDistortion is the largest squared L2 distance from any training
	// subvector to its assigned centroid — the observed per-subspace
	// reconstruction error bound on the training set.
	maxDistortion float32
}

// TrainPQ trains one k-means codebook per subspace over the rows of data
// (plain L2 Lloyd — subvectors are not unit-norm even when rows are).
func TrainPQ(data *mat.Matrix, cfg PQConfig) (*Codebook, error) {
	n, dim := data.Rows(), data.Cols()
	if n == 0 {
		return nil, errors.New("quant: cannot train pq over empty input")
	}
	cfg, err := cfg.withDefaults(dim, n)
	if err != nil {
		return nil, err
	}
	cb := &Codebook{
		dim:       dim,
		m:         cfg.M,
		k:         cfg.Centroids,
		sub:       dim / cfg.M,
		centroids: make([]float32, cfg.M*cfg.Centroids*dim/cfg.M),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	subvec := make([]float32, cb.sub)
	for mi := 0; mi < cb.m; mi++ {
		cents := cb.subspace(mi)
		trainSubspace(data, mi*cb.sub, cb.sub, cents, cb.k, cfg.KMeansIters, rng)
		// Record the worst training-set distortion for this subspace.
		for i := 0; i < n; i++ {
			copy(subvec, data.Row(i)[mi*cb.sub:(mi+1)*cb.sub])
			_, d := nearestCentroid(subvec, cents, cb.k, cb.sub)
			if d > cb.maxDistortion {
				cb.maxDistortion = d
			}
		}
	}
	return cb, nil
}

// subspace returns subspace mi's centroid block (k × sub, flattened).
func (cb *Codebook) subspace(mi int) []float32 {
	sz := cb.k * cb.sub
	return cb.centroids[mi*sz : (mi+1)*sz : (mi+1)*sz]
}

// trainSubspace runs L2 Lloyd's algorithm over column slice [off, off+sub)
// of data, writing k centroids into cents.
func trainSubspace(data *mat.Matrix, off, sub int, cents []float32, k, iters int, rng *rand.Rand) {
	n := data.Rows()
	// Initialize from distinct random rows.
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		copy(cents[c*sub:(c+1)*sub], data.Row(perm[c%n])[off:off+sub])
	}
	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([]float64, k*sub)
	for it := 0; it < iters; it++ {
		changed := false
		for i := 0; i < n; i++ {
			v := data.Row(i)[off : off+sub]
			best, _ := nearestCentroid(v, cents, k, sub)
			if assign[i] != best || it == 0 {
				assign[i] = best
				changed = true
			}
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := range sums {
			sums[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			v := data.Row(i)[off : off+sub]
			for j, x := range v {
				sums[c*sub+j] += float64(x)
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster from a random row.
				copy(cents[c*sub:(c+1)*sub], data.Row(rng.Intn(n))[off:off+sub])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < sub; j++ {
				cents[c*sub+j] = float32(sums[c*sub+j] * inv)
			}
		}
		if !changed {
			break
		}
	}
}

// nearestCentroid returns the closest centroid id and its squared L2
// distance to v.
func nearestCentroid(v, cents []float32, k, sub int) (int, float32) {
	best, bestD := 0, float32(math.MaxFloat32)
	for c := 0; c < k; c++ {
		cent := cents[c*sub : (c+1)*sub : (c+1)*sub]
		var d float32
		for j, x := range v {
			diff := x - cent[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// Dim returns the full vector dimensionality.
func (cb *Codebook) Dim() int { return cb.dim }

// M returns the number of subspaces (bytes per encoded vector).
func (cb *Codebook) M() int { return cb.m }

// K returns the per-subspace codebook size.
func (cb *Codebook) K() int { return cb.k }

// MaxDistortion is the worst squared per-subspace training distortion:
// encode→decode of any training row has per-subspace squared L2 error at
// most this value (arbitrary vectors may exceed it — their distortion is
// their distance to a codebook trained on other data).
func (cb *Codebook) MaxDistortion() float32 { return cb.maxDistortion }

// SizeBytes is the codebook's resident size (centroids only).
func (cb *Codebook) SizeBytes() int64 { return int64(len(cb.centroids)) * 4 }

// Encode writes v's M-byte code into dst (len ≥ M): per subspace, the id
// of the nearest centroid — the argmin that makes Decode the best
// codebook reconstruction of v.
func (cb *Codebook) Encode(v []float32, dst []byte) error {
	if len(v) != cb.dim {
		return fmt.Errorf("quant: pq encode dim %d, codebook dim %d", len(v), cb.dim)
	}
	if len(dst) < cb.m {
		return fmt.Errorf("quant: pq code buffer %d < %d", len(dst), cb.m)
	}
	for mi := 0; mi < cb.m; mi++ {
		id, _ := nearestCentroid(v[mi*cb.sub:(mi+1)*cb.sub], cb.subspace(mi), cb.k, cb.sub)
		dst[mi] = byte(id)
	}
	return nil
}

// EncodeAll encodes every row of data, returning n×M code bytes.
func (cb *Codebook) EncodeAll(data *mat.Matrix) ([]byte, error) {
	if data.Cols() != cb.dim {
		return nil, fmt.Errorf("quant: pq encode dim %d, codebook dim %d", data.Cols(), cb.dim)
	}
	out := make([]byte, data.Rows()*cb.m)
	for i := 0; i < data.Rows(); i++ {
		if err := cb.Encode(data.Row(i), out[i*cb.m:(i+1)*cb.m]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Decode reconstructs the vector for one M-byte code into dst (len dim):
// the concatenation of the selected centroids.
func (cb *Codebook) Decode(codes []byte, dst []float32) error {
	if len(codes) < cb.m {
		return fmt.Errorf("quant: pq decode needs %d code bytes, got %d", cb.m, len(codes))
	}
	if len(dst) != cb.dim {
		return fmt.Errorf("quant: pq decode buffer dim %d, want %d", len(dst), cb.dim)
	}
	for mi := 0; mi < cb.m; mi++ {
		c := int(codes[mi])
		if c >= cb.k {
			return fmt.Errorf("quant: pq code %d out of range (k=%d)", c, cb.k)
		}
		copy(dst[mi*cb.sub:(mi+1)*cb.sub], cb.subspace(mi)[c*cb.sub:(c+1)*cb.sub])
	}
	return nil
}

// ADCTableSize is the float32 count of one query's lookup table.
func (cb *Codebook) ADCTableSize() int { return cb.m * cb.k }

// ADCTable fills tab (len M·K) with the per-subspace dot products of q
// against every centroid: tab[mi·K + c] = q_mi · centroid_mi,c. One table
// per query amortizes over every encoded vector scanned.
func (cb *Codebook) ADCTable(q []float32, tab []float32) error {
	if len(q) != cb.dim {
		return fmt.Errorf("quant: adc query dim %d, codebook dim %d", len(q), cb.dim)
	}
	if len(tab) < cb.m*cb.k {
		return fmt.Errorf("quant: adc table len %d < %d", len(tab), cb.m*cb.k)
	}
	for mi := 0; mi < cb.m; mi++ {
		qs := q[mi*cb.sub : (mi+1)*cb.sub]
		cents := cb.subspace(mi)
		for c := 0; c < cb.k; c++ {
			cent := cents[c*cb.sub : (c+1)*cb.sub : (c+1)*cb.sub]
			var s float32
			for j, x := range qs {
				s += x * cent[j]
			}
			tab[mi*cb.k+c] = s
		}
	}
	return nil
}

// ADCScore is the asymmetric similarity estimate of one encoded vector:
// M lookups into the query's table, summed. k is the codebook's K.
func ADCScore(tab []float32, k int, codes []byte) float32 {
	var s float32
	for mi, c := range codes {
		s += tab[mi*k+int(c)]
	}
	return s
}
