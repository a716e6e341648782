// Package vindex defines the vector-index access-path abstraction: the
// contract a physical index must satisfy to serve the E-join's probe side.
// The paper frames indexes as "physical access method options" (Section
// II-B); this interface is that option point — HNSW (graph) and IVF-Flat
// (inverted file) both implement it, and the planner is agnostic.
package vindex

import (
	"ejoin/internal/mat"
	"ejoin/internal/relational"
)

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

// MutableIndex is an Index that accepts incremental inserts: the live
// mutation subsystem appends each upsert batch's vectors instead of
// rebuilding (construction dominates index cost — Table I's "Build"
// column — so a serving index must absorb writes in place). Ids are
// assigned sequentially from Len(), matching the physical row ids of the
// table the index covers. Deletes are not structural: tombstoned rows are
// masked by the search-time filter until the table compacts, and then the
// index follows the table's kept rows (an inverted file remaps its ids).
type MutableIndex interface {
	Index
	// Add appends vecs' rows (normalized copies) with ids Len()..Len()+n-1.
	// Safe to call concurrently with TopK.
	Add(vecs *mat.Matrix) error
}

// TunableIndex is the capability interface for indexes with a runtime
// recall/cost knob — the default beam a TopK with beam<=0 searches at
// (NProbe for inverted files, efSearch for graphs). The SLO-driven tuner
// nudges this knob between audit rounds; implementations must make both
// methods safe against concurrent TopK calls.
type TunableIndex interface {
	Index
	// Knob returns the knob's name (stable, e.g. "nprobe") and its
	// current value.
	Knob() (name string, value int)
	// SetKnob applies value, clamped to the index's valid range, and
	// returns the value actually in effect afterwards.
	SetKnob(value int) int
}
