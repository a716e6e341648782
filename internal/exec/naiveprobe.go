package exec

import (
	"context"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/model"
	"ejoin/internal/relational"
)

// NaiveProbe is the unoptimized join of Figure 1 as a pipeline stage: no
// input is embedded ahead of the join, and every (probe, build) pair pays
// two model calls inside core.NaiveNLJ. The build side is its resident
// texts; probe blocks carry row ids only and their texts are gathered
// here. The kernel walks pairs in (probe, build) order, so output order
// and the 2·|L|·|R| model-call count do not depend on the block size.
type NaiveProbe struct {
	Input Operator
	// Table/Column locate the probe side's text column.
	Table  *relational.Table
	Column string
	Model  model.Model
	// BuildTexts are the build side's surviving texts, one per BuildRows
	// entry (global row ids).
	BuildTexts []string
	BuildRows  []int
	Threshold  float32
	Opts       core.Options

	st    OpStats
	agg   core.Stats
	texts relational.StringColumn
}

// Open resolves the probe text column.
func (p *NaiveProbe) Open(ctx context.Context) error {
	p.st = OpStats{Name: "probe:naive"}
	p.agg = core.Stats{}
	if err := p.Input.Open(ctx); err != nil {
		return err
	}
	col, err := p.Table.Strings(p.Column)
	if err != nil {
		return err
	}
	p.texts = col
	return nil
}

// Next joins the next block's texts against the build texts.
func (p *NaiveProbe) Next(ctx context.Context) (*Batch, error) {
	b, err := p.Input.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	start := time.Now()
	p.st.RowsIn += int64(b.Len())
	texts := make([]string, len(b.Rows))
	for i, r := range b.Rows {
		texts[i] = p.texts[r]
	}
	res, err := core.NaiveNLJ(ctx, p.Model, texts, p.BuildTexts, p.Threshold, p.Opts)
	if err != nil {
		return nil, err
	}
	p.agg.Add(res.Stats)
	b.Matches = remap(b.Rows, p.BuildRows, res.Matches)
	p.st.RowsOut += int64(len(b.Matches))
	p.st.Batches++
	p.st.Elapsed += time.Since(start)
	return b, nil
}

// Close implements Operator.
func (p *NaiveProbe) Close() error { return p.Input.Close() }

// Stats implements Operator.
func (p *NaiveProbe) Stats() OpStats { return p.st }

// CoreStats is the aggregated pair and model-call accounting across all
// blocks.
func (p *NaiveProbe) CoreStats() core.Stats { return p.agg }
