// Package ejoin is a context-enhanced relational join engine: the Go
// reproduction of "Optimizing Context-Enhanced Relational Joins" (Sanca,
// Chatzakis, Ailamaki — ICDE 2024).
//
// The library joins relational tables on the *semantics* of context-rich
// columns (strings, documents, anything an embedding model can encode)
// instead of exact values. An embedding operator E_µ turns context-rich
// data into unit-norm vectors; the join matches pairs by cosine similarity
// (threshold or top-k); and a logical optimizer plus cost-based physical
// planner keep the whole pipeline declarative:
//
//   - relational predicates are pushed below the embedding operator, so
//     only surviving tuples are embedded;
//   - embeddings are prefetched once per tuple, never once per pair;
//   - the join runs as a cache-blocked tensor (matrix) kernel, a parallel
//     nested-loop join, or probes of an HNSW vector index — whichever the
//     cost model predicts is cheapest for the sizes, selectivities, and
//     condition at hand.
//
// # Quick start
//
//	m, _ := ejoin.NewHashModel(100)
//	matches, _ := ejoin.JoinStrings(ctx, m,
//	    []string{"barbecue", "database"},
//	    []string{"barbecues", "databases", "giraffe"},
//	    0.6)
//
// For table-level queries with relational predicates, build a Query and
// call Run; see the examples directory.
//
// # Cross-query embedding reuse
//
// Within one query the optimizer already prefetches embeddings once per
// tuple instead of once per pair. The shared EmbedStore extends that reuse
// across queries and across concurrent sessions: one store per process
// caches embeddings keyed by (model fingerprint, input) in sharded LRU
// segments, merges concurrent requests for the same input into a single
// in-flight model call, and coalesces cache misses into chunked parallel
// embed batches. Repeated queries over the same corpus perform zero model
// calls for already-seen inputs, and the optimizer discounts the embedding
// cost term by the store's expected hit ratio when choosing the physical
// strategy:
//
//	store := ejoin.NewEmbedStore(ejoin.EmbedStoreConfig{MaxBytes: 256 << 20})
//	exec := ejoin.NewStoreExecutor(store)
//	opt := ejoin.NewStoreOptimizer(store)
//	res, _, _ := ejoin.Run(ctx, q, exec, opt) // cold: embeds and caches
//	res, _, _ = ejoin.Run(ctx, q, exec, opt)  // warm: zero model calls
//	fmt.Println(store.Stats())                // hits, misses, merged, bytes
package ejoin

import (
	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/hnsw"
	"ejoin/internal/model"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Model is the embedding model µ: context-rich input -> vector.
	Model = model.Model
	// Table is a columnar relational table.
	Table = relational.Table
	// Schema describes a table's columns.
	Schema = relational.Schema
	// Field is one schema entry.
	Field = relational.Field
	// Pred is a relational predicate (column op value).
	Pred = relational.Pred
	// Selection is a vector of selected row indexes.
	Selection = relational.Selection

	// Query is a declarative hybrid vector-relational join query.
	Query = plan.Query
	// TableRef binds a table, its context-rich column, predicates, and an
	// optional vector index to one side of a query.
	TableRef = plan.TableRef
	// JoinSpec is the join condition (threshold or top-k).
	JoinSpec = plan.JoinSpec
	// ExecResult is the output of running a query.
	ExecResult = plan.ExecResult
	// Optimizer rewrites logical plans (pushdown, prefetch, reorder) and
	// selects physical strategies.
	Optimizer = plan.Optimizer
	// Executor runs optimized plans.
	Executor = plan.Executor
	// PlanNode is a logical plan operator.
	PlanNode = plan.Node
	// EJoinPlan is the join operator node at the root of a plan.
	EJoinPlan = plan.EJoin

	// Match is one join result: left/right row ids and similarity.
	Match = core.Match
	// JoinOptions tunes physical execution (kernel, threads, memory budget).
	JoinOptions = core.Options
	// JoinStats reports what an operator did (model calls, comparisons,
	// blocks, peak intermediate bytes).
	JoinStats = core.Stats

	// CostParams parametrizes the cost model.
	CostParams = cost.Params
	// Strategy is a physical join strategy.
	Strategy = cost.Strategy

	// IndexConfig holds HNSW construction parameters.
	IndexConfig = hnsw.Config
	// Index is an HNSW vector index.
	Index = hnsw.Index

	// Kernel selects scalar or SIMD-style compute kernels.
	Kernel = vec.Kernel
)

// Join kinds.
const (
	// ThresholdJoin matches pairs with similarity >= JoinSpec.Threshold.
	ThresholdJoin = plan.ThresholdJoin
	// TopKJoin matches each left tuple with its JoinSpec.K best matches.
	TopKJoin = plan.TopKJoin
)

// Physical strategies (README, "Architecture": the cost model picks one).
const (
	// StrategyNaiveNLJ embeds per compared pair (baseline only).
	StrategyNaiveNLJ = cost.StrategyNaiveNLJ
	// StrategyNLJ is the prefetched parallel nested-loop join.
	StrategyNLJ = cost.StrategyNLJ
	// StrategyTensor is the blocked-matrix formulation.
	StrategyTensor = cost.StrategyTensor
	// StrategyIndex probes an HNSW index.
	StrategyIndex = cost.StrategyIndex
)

// Compute kernels.
const (
	// KernelScalar is the portable kernel.
	KernelScalar = vec.KernelScalar
	// KernelSIMD is the unrolled (SIMD-style) kernel.
	KernelSIMD = vec.KernelSIMD
)

// Relational column types.
const (
	Int64Type   = relational.Int64
	Float64Type = relational.Float64
	StringType  = relational.String
	TimeType    = relational.Time
	BoolType    = relational.Bool
	VectorType  = relational.Vector
)

// Comparison operators for predicates.
const (
	EQ = relational.EQ
	NE = relational.NE
	LT = relational.LT
	LE = relational.LE
	GT = relational.GT
	GE = relational.GE
)

// NewHashModel returns the built-in FastText-like embedding model:
// deterministic subword n-gram hashing, robust to misspellings and
// out-of-vocabulary words. dim is the embedding dimensionality (the paper
// uses 100).
func NewHashModel(dim int) (Model, error) {
	return model.NewHashEmbedder(dim)
}

// NewHashModelWithSynonyms returns the hash model extended with synonym
// clusters (cluster label -> member words): members embed near each other
// even without shared subwords, standing in for learned semantics.
func NewHashModelWithSynonyms(dim int, clusters map[string][]string) (Model, error) {
	return model.NewHashEmbedder(dim, model.WithSynonyms(clusters))
}

// NewRandomModel returns a model mapping each distinct input to an
// independent pseudo-random unit vector (useful for synthetic workloads).
func NewRandomModel(dim int, seed uint64) (Model, error) {
	return model.NewRandomEmbedder(dim, seed)
}

// NewTable builds a columnar table; see the relational column constructors
// Int64Column, StringColumn, TimeColumn, Float64Column, BoolColumn and
// NewVectorColumn.
func NewTable(schema Schema, cols []relational.Column) (*Table, error) {
	return relational.NewTable(schema, cols)
}

// Column constructors, re-exported for table building.
type (
	// Int64Column stores int64 values.
	Int64Column = relational.Int64Column
	// Float64Column stores float64 values.
	Float64Column = relational.Float64Column
	// StringColumn stores strings.
	StringColumn = relational.StringColumn
	// TimeColumn stores timestamps.
	TimeColumn = relational.TimeColumn
	// BoolColumn stores booleans.
	BoolColumn = relational.BoolColumn
	// VectorColumn stores fixed-dimension embeddings.
	VectorColumn = relational.VectorColumn
	// Column is any table column.
	Column = relational.Column
)

// NewVectorColumn builds an embedding column from row vectors.
func NewVectorColumn(rows [][]float32) (*VectorColumn, error) {
	return relational.NewVectorColumn(rows)
}

// IndexConfigHi mirrors the paper's higher-recall HNSW configuration
// (M=64, efConstruction=512).
func IndexConfigHi() IndexConfig { return hnsw.ConfigHi() }

// IndexConfigLo mirrors the paper's lower-recall, lower-latency HNSW
// configuration (M=32, efConstruction=256).
func IndexConfigLo() IndexConfig { return hnsw.ConfigLo() }

// DefaultCostParams returns the default cost-model coefficients.
func DefaultCostParams() CostParams { return cost.DefaultParams() }

// CalibrateCostParams measures the host's relative access/model/compare
// costs for the given model and dimensionality.
func CalibrateCostParams(m Model, dim int) (CostParams, error) {
	return cost.Calibrate(m, dim)
}

// NewOptimizer returns an optimizer with default cost parameters.
func NewOptimizer() *Optimizer { return plan.NewOptimizer() }

// ExplainPlan renders a plan as an indented tree.
func ExplainPlan(n PlanNode) string { return plan.ExplainTree(n) }

// MaterializeResult builds the joined output table (left columns prefixed
// l_, right columns r_, plus a similarity column).
func MaterializeResult(q Query, res *ExecResult) (*Table, error) {
	return plan.MaterializeResult(q, res)
}
