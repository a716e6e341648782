// Package exec is the execution engine the join runs on: a pull-based
// (Volcano-style) operator pipeline over fixed-size columnar batches.
//
// The paper's cost model treats intermediate footprint as a first-class
// term. The pipeline keeps only the build side resident and pulls the
// probe side through one block at a time, so peak residency is build-side
// + O(block) whatever the query returns, and a LIMIT can short-circuit
// upstream work (scan, embed, probe) it will never use. package plan
// lowers both join inputs onto the same source operator; the build side
// is the input drained as one block.
//
// Operators compose bottom-up: Scan (predicate + projection pushdown; it
// projects the join column's embeddings itself, E_µ, from the table's
// embedded text column in embstore) → one probe operator, the tensor scan
// (ThresholdProbe or TopKProbe; build side resident) → optional Limit.
// Probe kernels sort their matches by (probe, build) offset and blocks
// arrive in ascending probe order, so a pipeline's output does not depend
// on its block size. Each operator tracks its own OpStats (rows in/out,
// batches, early-out counts, self time) for EXPLAIN ANALYZE and the
// /metrics exposition.
package exec

import (
	"context"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/mat"
	"ejoin/internal/relational"
)

// DefaultBlockSize is the number of probe-side rows per batch when the
// caller does not override it: large enough to amortize per-batch
// dispatch and keep the SIMD kernels fed, small enough that a block of
// embeddings stays cache- and admission-friendly.
const DefaultBlockSize = 4096

// Batch is one block of rows flowing through a pipeline. Source-side
// operators (Scan, Embed) populate Rows and the embeddings; probe and
// limit operators emit Matches. A batch's Rows and Matches are owned by
// its consumer, which may rewrite them before passing it on. Emb and
// EmbRows are read-only and valid only until the consumer pulls the next
// batch: Emb may be runs of resident column chunks (read in place, with
// their forms) or a matrix its producer owns.
type Batch struct {
	// Rows are global row ids into the probe-side base table, ascending.
	Rows []int
	// Emb holds unit-norm embeddings covering Rows (set by Scan when
	// projecting an embedded column): row r of Emb is the
	// embedding of global row EmbRows[r]. It may hold rows outside Rows —
	// the rest of a chunk's 16-row group, rows of other table versions —
	// which EmbKeep leaves out; nil EmbKeep keeps every row of Emb.
	Emb     mat.Side
	EmbRows []int
	EmbKeep *relational.Bitmap
	// Matches are join outputs with global row ids on both sides.
	Matches []core.Match
}

// Len is the number of source rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// OpStats is one operator's account of its work. Counters are cumulative
// over the operator's lifetime; Elapsed is self time (time inside this
// operator's Next, excluding time spent pulling its input).
type OpStats struct {
	// Name identifies the operator in metrics and EXPLAIN ANALYZE
	// ("scan", "embed", "probe:tensor", "probe:topk", "limit").
	Name string
	// RowsIn/RowsOut count source rows (or matches, for match-valued
	// operators) entering and leaving the operator.
	RowsIn  int64
	RowsOut int64
	// Batches is the number of non-empty batches emitted.
	Batches int64
	// EarlyOutRows counts rows (or matches) the operator dropped or never
	// produced because of early termination: residual-threshold drops in
	// top-k, matches discarded by LIMIT.
	EarlyOutRows int64
	// Elapsed is cumulative self time.
	Elapsed time.Duration
}

// Operator is a pull-based pipeline stage. Open cascades to the input and
// acquires resources; Next returns the next batch or (nil, nil) at end of
// stream; Close cascades and releases. Operators are single-consumer and
// not safe for concurrent Next calls — parallelism lives inside the
// kernels a block is handed to, not across blocks.
type Operator interface {
	Open(ctx context.Context) error
	Next(ctx context.Context) (*Batch, error)
	Close() error
	Stats() OpStats
}
