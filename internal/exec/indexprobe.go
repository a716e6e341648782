package exec

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/mat"
	"ejoin/internal/relational"
	"ejoin/internal/vindex"
)

// IndexProbe streams probe blocks against a vector index. The index is
// already resident (or was built once before the stream started), so the
// operator holds no build matrix; Opts.RightFilter carries the inner
// side's MVCC visibility and predicate mask into the probes.
type IndexProbe struct {
	Input Operator
	Index vindex.Index
	Cond  core.IndexJoinCondition
	Opts  core.Options
	// BuildRows, when non-nil, remaps index ids to global row ids (indexes
	// built on the fly over a filtered selection); nil means index ids are
	// already global.
	BuildRows []int

	st  OpStats
	agg core.Stats
}

// Open implements Operator.
func (p *IndexProbe) Open(ctx context.Context) error {
	p.st = OpStats{Name: "probe:index"}
	p.agg = core.Stats{}
	if p.Index == nil {
		return fmt.Errorf("exec: index probe has no index")
	}
	return p.Input.Open(ctx)
}

// Next implements Operator.
func (p *IndexProbe) Next(ctx context.Context) (*Batch, error) {
	b, err := p.Input.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	start := time.Now()
	p.st.RowsIn += int64(b.Len())
	res, err := core.IndexJoinWith(ctx, Dense(b.Emb, b.EmbKeep), p.Index, p.Cond, p.Opts)
	if err != nil {
		return nil, err
	}
	p.agg.Add(res.Stats)
	matches := make([]core.Match, len(res.Matches))
	for i, m := range res.Matches {
		right := m.Right
		if p.BuildRows != nil {
			right = p.BuildRows[right]
		}
		matches[i] = core.Match{Left: b.Rows[m.Left], Right: right, Sim: m.Sim}
	}
	b.Matches = matches
	b.Emb, b.EmbRows, b.EmbKeep = nil, nil, nil
	p.st.RowsOut += int64(len(b.Matches))
	p.st.Batches++
	p.st.Elapsed += time.Since(start)
	return b, nil
}

// Dense returns the rows of side that keep marks (nil: all) as one
// matrix, in order: side itself if it is a matrix holding only them. An
// index probes and is built over matrices.
func Dense(side mat.Side, keep *relational.Bitmap) *mat.Matrix {
	if m, ok := side.(*mat.Matrix); ok && keep == nil {
		return m
	}
	n := side.Rows()
	if keep != nil {
		n = keep.Count()
	}
	out := mat.New(n, side.Cols())
	for i, r := 0, 0; r < n; i++ {
		if keep == nil || keep.Get(i) {
			copy(out.Row(r), side.Row(i))
			r++
		}
	}
	return out
}

// Close implements Operator.
func (p *IndexProbe) Close() error { return p.Input.Close() }

// Stats implements Operator.
func (p *IndexProbe) Stats() OpStats { return p.st }

// CoreStats is the aggregated probe accounting across all blocks.
func (p *IndexProbe) CoreStats() core.Stats { return p.agg }
