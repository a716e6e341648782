// Package shard is the in-process horizontal sharding layer: a Router
// that owns N service.Engine shards inside one process, routes rows to
// shards through a pluggable Partitioner, fans mutations to the owning
// shard's WAL, and serves queries scatter-gather. Queries run the same
// lifecycle an Engine's do — one service.Frontend resolves, admits,
// counts, and traces them — and the router supplies only its two backend
// steps (query.go): plan one pipeline per probe-shard x build-shard pair
// over pinned per-shard snapshots, then stream them through plan.OpenStream
// into an incremental merge (merge.go) whose results are byte-identical
// to an equivalent unsharded engine's. A later cross-process split reuses
// the same partition/merge semantics.
//
// Singleton audit (what makes N engines in one process safe): every
// service.Engine owns its state per instance — prepared-plan cache,
// counters, latency histograms, slow log, and mutation/durable arms are
// all struct fields, not package globals, and metrics are rendered by an
// instance-scoped obs.MetricsWriter rather than a global registry. The
// deliberately shared resources come from one service.Resolve: one
// model.Model and one embstore.Store across all shards, so a fan-out
// embeds its probe side once and every shard's build evaluation hits the
// same cache instead of calling the model N times, and one cost
// calibration, which the router — the only component that plans — uses.
package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"ejoin/internal/embstore"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/mutation"
	"ejoin/internal/relational"
)

// Partitioner assigns rows to shards. Implementations must be
// deterministic: the same row content maps to the same shard across
// restarts (centroid state is frozen and persisted in the shard
// manifest for exactly this reason).
type Partitioner interface {
	// Kind is the manifest/flag name ("hash" or "centroid").
	Kind() string
	// Owners returns the owning shard for each row of batch. tm carries
	// the table's persisted partitioning state (centroids, fallback).
	Owners(ctx context.Context, tm *tableMeta, batch *relational.Table) ([]int, error)
	// Fit prepares per-table state from the table's first ingest (no-op
	// for stateless partitioners). Called once, before the first Owners.
	Fit(ctx context.Context, tm *tableMeta, batch *relational.Table) error
}

// partitionKey renders one row of the routing column in the same
// canonical form the mutation layer keys rows by, so hash placement and
// upsert-key identity agree wherever the routing column is the key
// column. Vector columns (no KeyString form) render their raw values.
func partitionKey(col relational.Column, row int) string {
	if vc, ok := col.(*relational.VectorColumn); ok {
		var b strings.Builder
		for _, v := range vc.Row(row) {
			b.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
			b.WriteByte(',')
		}
		return b.String()
	}
	s, err := mutation.KeyString(col, row)
	if err != nil {
		return fmt.Sprintf("%v", row)
	}
	return s
}

// hashPartitioner routes by FNV-1a over the canonical string of the
// table's first column — content-addressed, stateless, skew-prone only
// when the first column has few distinct values.
type hashPartitioner struct{ shards int }

func (h *hashPartitioner) Kind() string { return "hash" }

func (h *hashPartitioner) Fit(context.Context, *tableMeta, *relational.Table) error { return nil }

func (h *hashPartitioner) Owners(_ context.Context, _ *tableMeta, batch *relational.Table) ([]int, error) {
	if batch.NumCols() == 0 {
		return nil, fmt.Errorf("shard: cannot hash-partition a zero-column table")
	}
	col := batch.ColumnAt(0)
	out := make([]int, batch.NumRows())
	for i := range out {
		f := fnv.New64a()
		f.Write([]byte(partitionKey(col, i)))
		out[i] = int(f.Sum64() % uint64(h.shards))
	}
	return out, nil
}

// centroidPartitioner is the centroid-affine strategy: k-means over the
// first ingest's embeddings (first vector column, else first string
// column embedded through the shared store), one centroid per shard, so
// similar rows — and therefore IVF posting lists — co-locate. Centroids
// are frozen at fit time and persisted in the shard manifest; a table
// whose first batch is too small (or has no embeddable column) falls
// back to hash placement permanently, keeping placement deterministic.
type centroidPartitioner struct {
	shards int
	model  model.Model
	store  *embstore.Store
	hash   *hashPartitioner
}

func (c *centroidPartitioner) Kind() string { return "centroid" }

// embedColumn returns the routing column's name and role for tm's schema:
// the first vector column, else the first string column, else "".
func embedColumn(schema relational.Schema) (name string, isVector bool) {
	for _, f := range schema {
		if f.Type == relational.Vector {
			return f.Name, true
		}
	}
	for _, f := range schema {
		if f.Type == relational.String {
			return f.Name, false
		}
	}
	return "", false
}

// rowVectors gathers normalized per-row embeddings for the routing column.
func (c *centroidPartitioner) rowVectors(ctx context.Context, batch *relational.Table) (*mat.Matrix, error) {
	col, isVec := embedColumn(batch.Schema())
	if col == "" {
		return nil, fmt.Errorf("shard: table has no vector or text column to centroid-partition by")
	}
	if isVec {
		vc, err := batch.Vectors(col)
		if err != nil {
			return nil, err
		}
		m, err := mat.FromFlat(vc.Len(), vc.Dim, vc.Data)
		if err != nil {
			return nil, err
		}
		m = m.Clone()
		m.NormalizeRows()
		return m, nil
	}
	texts, err := batch.Strings(col)
	if err != nil {
		return nil, err
	}
	m, _, err := c.store.EmbedAll(ctx, c.model, texts, embstore.BatchOptions{})
	if err != nil {
		return nil, err
	}
	m = m.Clone()
	m.NormalizeRows()
	return m, nil
}

// Fit runs seeded k-means over the first batch. Batches smaller than the
// shard count (or without an embeddable column) set the permanent hash
// fallback instead of fitting a degenerate clustering.
func (c *centroidPartitioner) Fit(ctx context.Context, tm *tableMeta, batch *relational.Table) error {
	if col, _ := embedColumn(batch.Schema()); col == "" || batch.NumRows() < c.shards {
		tm.hashFallback = true
		return nil
	}
	vecs, err := c.rowVectors(ctx, batch)
	if err != nil {
		return err
	}
	tm.centroids = kmeans(vecs, c.shards)
	return nil
}

func (c *centroidPartitioner) Owners(ctx context.Context, tm *tableMeta, batch *relational.Table) ([]int, error) {
	if tm.hashFallback || len(tm.centroids) == 0 {
		return c.hash.Owners(ctx, tm, batch)
	}
	vecs, err := c.rowVectors(ctx, batch)
	if err != nil {
		return nil, err
	}
	out := make([]int, batch.NumRows())
	for i := range out {
		out[i] = nearestCentroid(tm.centroids, vecs.Row(i))
	}
	return out, nil
}

// nearestCentroid returns the centroid with the highest dot product
// (cosine: all inputs are unit-normalized), ties to the lower index.
func nearestCentroid(centroids [][]float32, v []float32) int {
	best, bestDot := 0, float32(-2)
	for ci, cvec := range centroids {
		var d float32
		for i := range cvec {
			d += cvec[i] * v[i]
		}
		if d > bestDot {
			best, bestDot = ci, d
		}
	}
	return best
}

// kmeans is a small deterministic spherical k-means: strided seeding,
// fixed iteration count, empty clusters keep their previous centroid.
// (ivf's internal k-means is unexported; this one is tiny and keeps the
// partitioner self-contained.)
func kmeans(vecs *mat.Matrix, k int) [][]float32 {
	n, dim := vecs.Rows(), vecs.Cols()
	centroids := make([][]float32, k)
	for c := 0; c < k; c++ {
		centroids[c] = append([]float32(nil), vecs.Row(c*n/k)...)
	}
	assign := make([]int, n)
	for iter := 0; iter < 8; iter++ {
		for i := 0; i < n; i++ {
			assign[i] = nearestCentroid(centroids, vecs.Row(i))
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			row := vecs.Row(i)
			for d := 0; d < dim; d++ {
				sums[c][d] += float64(row[d])
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			var norm float64
			for d := 0; d < dim; d++ {
				m := sums[c][d] / float64(counts[c])
				sums[c][d] = m
				norm += m * m
			}
			if norm == 0 {
				continue
			}
			scale := 1 / float32(math.Sqrt(norm))
			for d := 0; d < dim; d++ {
				centroids[c][d] = float32(sums[c][d]) * scale
			}
		}
	}
	return centroids
}
