package exec

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/core"
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
	res, err := core.IndexJoinWith(ctx, b.Emb, p.Index, p.Cond, p.Opts)
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
	b.Emb = nil
	p.st.RowsOut += int64(len(b.Matches))
	p.st.Batches++
	p.st.Elapsed += time.Since(start)
	return b, nil
}

// Close implements Operator.
func (p *IndexProbe) Close() error { return p.Input.Close() }

// Stats implements Operator.
func (p *IndexProbe) Stats() OpStats { return p.st }

// CoreStats is the aggregated probe accounting across all blocks.
func (p *IndexProbe) CoreStats() core.Stats { return p.agg }
