package exec

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/mat"
)

// buildSide is the resident inner side shared by the scan-based probes:
// the optimizer's smaller-inner reordering already made it the cheaper
// side to hold.
type buildSide struct {
	// Build are the unit-norm build embeddings, one row per BuildRows entry.
	Build *mat.Matrix
	// BuildRows maps build-matrix rows to global row ids.
	BuildRows []int
}

// remap converts a kernel's local match offsets to global row ids, in
// place: the kernel's result belongs to the batch it was computed for.
func remap(probeRows, buildRows []int, ms []core.Match) []core.Match {
	for i, m := range ms {
		ms[i] = core.Match{Left: probeRows[m.Left], Right: buildRows[m.Right], Sim: m.Sim}
	}
	return ms
}

// ThresholdProbe is the threshold tensor scan: the build side stays
// resident while probe blocks stream through the blocked tensor kernel
// (core.TensorJoin, exact F32; its int8 filter only skips tiles no cell
// of which can reach the threshold). Each kernel call sorts its matches
// by (probe, build) offset and blocks arrive in ascending probe order,
// so the concatenated output is globally ordered by (probe, build) row
// id whatever the block size — which is what makes LIMIT's first-N well
// defined.
type ThresholdProbe struct {
	Input Operator
	buildSide
	Threshold float32
	Opts      core.Options

	st  OpStats
	agg core.Stats
}

// Open implements Operator.
func (p *ThresholdProbe) Open(ctx context.Context) error {
	p.st = OpStats{Name: "probe:tensor"}
	p.agg = core.Stats{}
	if err := p.Input.Open(ctx); err != nil {
		return err
	}
	if p.Build == nil {
		return fmt.Errorf("exec: threshold probe has no build side")
	}
	return nil
}

// Next probes the next block against the resident build side.
func (p *ThresholdProbe) Next(ctx context.Context) (*Batch, error) {
	b, err := p.Input.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	start := time.Now()
	p.st.RowsIn += int64(b.Len())
	res, err := core.TensorJoin(ctx, b.Emb, p.Build, p.Threshold, p.Opts)
	if err != nil {
		return nil, err
	}
	p.agg.Add(res.Stats)
	b.Matches = remap(b.Rows, p.BuildRows, res.Matches)
	b.Emb = nil
	p.st.RowsOut += int64(len(b.Matches))
	p.st.Batches++
	p.st.Elapsed += time.Since(start)
	return b, nil
}

// Close implements Operator.
func (p *ThresholdProbe) Close() error { return p.Input.Close() }

// Stats implements Operator.
func (p *ThresholdProbe) Stats() OpStats { return p.st }

// CoreStats is the aggregated kernel accounting across all blocks.
func (p *ThresholdProbe) CoreStats() core.Stats { return p.agg }

// TopKProbe streams probe blocks through the exact top-k kernel against
// the resident build side. Top-k is per probe row, so blocking the probe
// side cannot change any row's result set; the kernel's per-row heap
// already tightens its admission threshold as candidates accumulate
// (early-out on pairs below the current k-th similarity), and an optional
// residual threshold drops sub-threshold matches before they leave the
// operator, counted as early-out rows.
type TopKProbe struct {
	Input Operator
	buildSide
	K int
	// Residual, when > -1, additionally filters matches (range condition
	// over top-k).
	Residual float32
	Opts     core.Options

	st  OpStats
	agg core.Stats
}

// Open implements Operator.
func (p *TopKProbe) Open(ctx context.Context) error {
	p.st = OpStats{Name: "probe:topk"}
	p.agg = core.Stats{}
	if err := p.Input.Open(ctx); err != nil {
		return err
	}
	if p.Build == nil {
		return fmt.Errorf("exec: top-k probe has no build side")
	}
	return nil
}

// Next implements Operator.
func (p *TopKProbe) Next(ctx context.Context) (*Batch, error) {
	b, err := p.Input.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	start := time.Now()
	p.st.RowsIn += int64(b.Len())
	res, err := core.TensorTopK(ctx, b.Emb, p.Build, p.K, p.Opts)
	if err != nil {
		return nil, err
	}
	p.agg.Add(res.Stats)
	matches := res.Matches
	if p.Residual > -1 {
		kept := matches[:0]
		for _, m := range matches {
			if m.Sim >= p.Residual {
				kept = append(kept, m)
			}
		}
		p.st.EarlyOutRows += int64(len(matches) - len(kept))
		matches = kept
	}
	b.Matches = remap(b.Rows, p.BuildRows, matches)
	b.Emb = nil
	p.st.RowsOut += int64(len(b.Matches))
	p.st.Batches++
	p.st.Elapsed += time.Since(start)
	return b, nil
}

// Close implements Operator.
func (p *TopKProbe) Close() error { return p.Input.Close() }

// Stats implements Operator.
func (p *TopKProbe) Stats() OpStats { return p.st }

// CoreStats is the aggregated kernel accounting across all blocks.
func (p *TopKProbe) CoreStats() core.Stats { return p.agg }
