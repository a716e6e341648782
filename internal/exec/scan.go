package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ejoin/internal/embstore"
	"ejoin/internal/relational"
)

// Scan streams a base table's visible rows in ascending blocks, with both
// pushdowns applied at the source: relational predicates are evaluated
// once at Open into the scan's selection (rows failing them are never
// emitted, embedded, or probed), and only the columns the pipeline needs
// leave the operator — row ids always, plus the join column's embeddings
// when an embedded text column backs the join.
// Everything else is late-materialized from the base table after the join.
type Scan struct {
	// Table is the base table; Name labels it in stats.
	Table *relational.Table
	Name  string
	// Visible, when non-nil, is the MVCC visibility selection of the
	// generation snapshot the query pinned; nil means all physical rows.
	Visible relational.Selection
	// Preds are pushed-down relational predicates.
	Preds []relational.Pred
	// Embedded, when set, projects a text column's embeddings from the
	// store's resident column chunks; its work is accounted as E_µ
	// (EmbedStats), not as scan time.
	Embedded *EmbeddedColumn
	// BlockRows is rows per batch; <=0 uses DefaultBlockSize.
	BlockRows int

	st   OpStats
	rows relational.Selection
	pos  int
	col  *columnReader
}

// Open resolves the scan's selection: visibility ∩ pushed-down predicates.
func (s *Scan) Open(ctx context.Context) error {
	s.st = OpStats{Name: "scan"}
	s.pos = 0
	rows := s.Visible
	if rows == nil {
		rows = allRows(s.Table.NumRows())
	}
	s.st.RowsIn = int64(len(rows))
	if len(s.Preds) > 0 {
		sel, err := relational.And(s.Table, s.Preds...)
		if err != nil {
			return err
		}
		keep := relational.BitmapFromSelection(s.Table.NumRows(), sel)
		filtered := make(relational.Selection, 0, len(rows))
		for _, r := range rows {
			if keep.Get(r) {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}
	s.rows = rows
	s.col = nil
	if s.Embedded != nil {
		col, err := newColumnReader(s.Embedded, s.Table, s.Visible)
		if err != nil {
			return err
		}
		s.col = col
	}
	return nil
}

// Rows is the full post-predicate selection, available after Open. It is
// complete regardless of how far the stream was pulled — a LIMIT that
// stops the pipeline early does not censor it. It is read-only: over an
// all-live table it is the selection every such scan shares.
func (s *Scan) Rows() relational.Selection { return s.rows }

// Next emits the next block.
func (s *Scan) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exec: scan cancelled: %w", err)
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	start := time.Now()
	n := s.BlockRows
	if n <= 0 {
		n = DefaultBlockSize
	}
	hi := s.pos + n
	if hi > len(s.rows) {
		hi = len(s.rows)
	}
	// Copy the block: downstream operators may compact Rows in place and
	// must not corrupt the scan's selection.
	block := make([]int, hi-s.pos)
	copy(block, s.rows[s.pos:hi])
	s.pos = hi
	b := &Batch{Rows: block}
	s.st.RowsOut += int64(len(block))
	s.st.Batches++
	s.st.Elapsed += time.Since(start)
	if s.col != nil {
		var err error
		if b.Emb, b.EmbRows, b.EmbKeep, err = s.col.project(ctx, block); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// Release lets later scans reuse the buffer this scan gathered sparse
// blocks into, and the store reuse the column chunks the scan read. Call
// it once no batch the scan emitted is in use any more (after Close, the
// last block is still readable).
func (s *Scan) Release() {
	if s.col != nil {
		s.col.release()
	}
}

// Stats implements Operator.
func (s *Scan) Stats() OpStats { return s.st }

// EmbedStats is the E_µ work of an Embedded column's projection: rows
// projected and the time spent reading (and, when missing, building)
// chunks, under the operator name "embed".
func (s *Scan) EmbedStats() OpStats {
	if s.col == nil {
		return OpStats{Name: "embed"}
	}
	return s.col.st
}

// BatchStats is the Embedded column's cumulative cache/model accounting.
func (s *Scan) BatchStats() embstore.BatchStats {
	if s.col == nil {
		return embstore.BatchStats{}
	}
	return s.col.batch
}

// sharedAll backs allRows: the longest 0..n-1 selection handed out so far.
var sharedAll atomic.Pointer[relational.Selection]

// allRows is the selection 0..n-1 without allocating it per scan: a
// prefix of one shared array, capped at n so an append cannot write into
// it. Nothing may write to it in place.
func allRows(n int) relational.Selection {
	for {
		cur := sharedAll.Load()
		if cur != nil && len(*cur) >= n {
			return (*cur)[:n:n]
		}
		size := n
		if cur != nil && 2*len(*cur) > size {
			size = 2 * len(*cur)
		}
		next := relational.All(size)
		if sharedAll.CompareAndSwap(cur, &next) {
			return next[:n:n]
		}
	}
}
