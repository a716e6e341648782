package exec

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/mat"
	"ejoin/internal/relational"
)

// Scan streams a base table's visible rows in ascending blocks, with both
// pushdowns applied at the source: relational predicates are evaluated
// once at Open into the scan's selection (rows failing them are never
// emitted, embedded, or probed), and only the columns the pipeline needs
// leave the operator — row ids always, plus the projected vector column
// when one backs the join. Everything else is late-materialized from the
// base table after the join.
type Scan struct {
	// Table is the base table; Name labels it in stats.
	Table *relational.Table
	Name  string
	// Visible, when non-nil, is the MVCC visibility selection of the
	// generation snapshot the query pinned; nil means all physical rows.
	Visible relational.Selection
	// Preds are pushed-down relational predicates.
	Preds []relational.Pred
	// VectorColumn, when set, projects precomputed embeddings into each
	// batch, normalized per block (stored columns are never mutated).
	VectorColumn string
	// BlockRows is rows per batch; <=0 uses DefaultBlockSize.
	BlockRows int

	st   OpStats
	rows relational.Selection
	pos  int
	vc   *relational.VectorColumn
}

// Open resolves the scan's selection: visibility ∩ pushed-down predicates.
func (s *Scan) Open(ctx context.Context) error {
	s.st = OpStats{Name: "scan"}
	s.pos = 0
	rows := s.Visible
	if rows == nil {
		rows = relational.All(s.Table.NumRows())
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
	if s.VectorColumn != "" {
		vc, err := s.Table.Vectors(s.VectorColumn)
		if err != nil {
			return err
		}
		s.vc = vc
	}
	return nil
}

// Rows is the full post-predicate selection, available after Open. It is
// complete regardless of how far the stream was pulled — a LIMIT that
// stops the pipeline early does not censor it.
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
	if s.vc != nil {
		m := mat.New(len(block), s.vc.Dim)
		for i, r := range block {
			copy(m.Row(i), s.vc.Row(r))
		}
		m.NormalizeRows()
		b.Emb = m
	}
	s.st.RowsOut += int64(len(block))
	s.st.Batches++
	s.st.Elapsed += time.Since(start)
	return b, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// Stats implements Operator.
func (s *Scan) Stats() OpStats { return s.st }

// RowFilter applies relational predicates mid-pipeline (above an Embed),
// compacting each batch. The optimizer's pushdown rule normally fuses
// predicates into the Scan; this operator exists for plans where the
// filter sits above E_µ, preserving the un-pushed-down cost: every
// scanned row is embedded, which is the model work such a plan reports.
type RowFilter struct {
	Input Operator
	Table *relational.Table
	Preds []relational.Pred

	st   OpStats
	keep *relational.Bitmap
}

// Open evaluates the predicate bitmap once.
func (f *RowFilter) Open(ctx context.Context) error {
	f.st = OpStats{Name: "filter"}
	if err := f.Input.Open(ctx); err != nil {
		return err
	}
	sel, err := relational.And(f.Table, f.Preds...)
	if err != nil {
		return err
	}
	f.keep = relational.BitmapFromSelection(f.Table.NumRows(), sel)
	return nil
}

// Filter restricts a selection to the predicate-passing rows (used by the
// lowering layer to compute the full post-filter selection for feedback).
func (f *RowFilter) Filter(sel relational.Selection) relational.Selection {
	out := make(relational.Selection, 0, len(sel))
	for _, r := range sel {
		if f.keep.Get(r) {
			out = append(out, r)
		}
	}
	return out
}

// Next compacts the next input batch in place.
func (f *RowFilter) Next(ctx context.Context) (*Batch, error) {
	for {
		b, err := f.Input.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		start := time.Now()
		f.st.RowsIn += int64(b.Len())
		w := 0
		for r, row := range b.Rows {
			if !f.keep.Get(row) {
				continue
			}
			b.Rows[w] = row
			if b.Emb != nil && w != r {
				copy(b.Emb.Row(w), b.Emb.Row(r))
			}
			if b.Sims != nil {
				b.Sims[w] = b.Sims[r]
			}
			w++
		}
		b.Rows = b.Rows[:w]
		if b.Emb != nil {
			b.Emb = b.Emb.Slice(0, w)
		}
		if b.Sims != nil {
			b.Sims = b.Sims[:w]
		}
		f.st.Elapsed += time.Since(start)
		if w == 0 {
			continue // fully filtered block: pull the next one
		}
		f.st.RowsOut += int64(w)
		f.st.Batches++
		return b, nil
	}
}

// Close implements Operator.
func (f *RowFilter) Close() error { return f.Input.Close() }

// Stats implements Operator.
func (f *RowFilter) Stats() OpStats { return f.st }
