// Package vindex defines the vector-index access-path abstraction: the
// contract a physical index must satisfy to serve the E-join's probe side.
// The paper frames indexes as "physical access method options" (Section
// II-B); this interface is that option point — HNSW (graph) and IVF-Flat
// (inverted file) both implement it, and the planner is agnostic.
//
// An index is built once and then only searched. No served table keeps
// one and no served plan probes one: a served plan is the tensor scan.
// The index access path is core.IndexJoin, the Section VI-E baseline
// that internal/bench times over an index it builds; the repo benchmark's
// per-layer pass probes HNSW and IVF-Flat through this interface.
package vindex

import "ejoin/internal/relational"

// Hit is one probe result.
type Hit struct {
	// ID is the indexed row id.
	ID int
	// Sim is the cosine similarity to the query.
	Sim float32
}

// Index is a built vector index that answers filtered top-k probes.
type Index interface {
	// Dim is the indexed vector dimensionality.
	Dim() int
	// Len is the number of indexed vectors.
	Len() int
	// DistanceCalls reports cumulative vector comparisons (the probe-cost
	// observable the cost model's Iprobe abstracts).
	DistanceCalls() int64
	// TopK returns the (approximately) k most similar indexed vectors to
	// q, sorted descending. beam widens the search (efSearch for graph
	// indexes, nprobe for inverted files); <=0 uses the index default.
	// filter applies the index's pre-filtering semantics.
	TopK(q []float32, k, beam int, filter *relational.Bitmap) ([]Hit, error)
}
