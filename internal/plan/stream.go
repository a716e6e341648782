package plan

// Streaming execution: lowering an optimized EJoin tree into an
// internal/exec operator pipeline. The build (inner) side is evaluated
// resident exactly as the materializing executor would — same embedding
// path, same stats — while the probe (outer) side streams through
// Scan → Embed → probe in fixed-size blocks. Because every kernel sorts
// its matches by (probe, build) offset and blocks arrive in ascending
// probe order, the streamed output is byte-identical to the materialized
// one, which the differential harness asserts per query shape.

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/exec"
	"ejoin/internal/hnsw"
	"ejoin/internal/obs"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// Streamable reports whether j can execute block-at-a-time. The naive
// strategy cannot: its defining cost is per-pair model calls inside the
// join, which has no build/probe decomposition to stream.
func Streamable(j *EJoin) bool {
	return j != nil && j.Strategy != cost.StrategyNaiveNLJ
}

// probeChain is the probe side's lowered Scan/Filter/Embed chain.
type probeChain struct {
	scanNode *Scan
	// above are the nodes stacked on the scan, bottom-up (the order they
	// evaluate in), each a *Filter or *Embed.
	above []Node
}

// walkProbeChain decomposes a join input into its lowering order.
func walkProbeChain(n Node) (*probeChain, error) {
	var stack []Node
	for cur := n; ; {
		switch t := cur.(type) {
		case *Scan:
			// stack holds top-down order; reverse into evaluation order.
			pc := &probeChain{scanNode: t}
			for i := len(stack) - 1; i >= 0; i-- {
				pc.above = append(pc.above, stack[i])
			}
			return pc, nil
		case *Filter:
			stack = append(stack, t)
			cur = t.Input
		case *Embed:
			stack = append(stack, t)
			cur = t.Input
		default:
			return nil, fmt.Errorf("plan: unsupported streaming input node %T", cur)
		}
	}
}

// loweredPipeline holds the assembled operators plus the typed references
// the post-drain accounting needs.
type loweredPipeline struct {
	top       exec.Operator
	scan      *exec.Scan
	filters   []*exec.RowFilter
	embed     *exec.Embed
	threshold *exec.ThresholdProbe
	topk      *exec.TopKProbe
	index     *exec.IndexProbe
	limit     *exec.Limit
	// nodes mirrors the operators' plan nodes for EXPLAIN ANALYZE naming.
	scanNode    *Scan
	filterNodes []*Filter
	embedNode   *Embed
}

// BuildSide is a resident evaluated build (inner) input. It is reusable
// across multiple probe streams over plans sharing the same right side:
// the shard router evaluates one build per build shard and probes it with
// every probe shard's stream, paying the embedding cost once.
type BuildSide struct {
	in *evaluatedInput
}

// Rows is the build side's surviving selection (global row ids).
func (b *BuildSide) Rows() relational.Selection { return b.in.rows }

// ModelCalls is the model work the build evaluation performed. Callers
// sharing one build across streams add it to their aggregate exactly once.
func (b *BuildSide) ModelCalls() int64 { return b.in.modelCalls }

// EmbedTime is the build evaluation's embedding wall time.
func (b *BuildSide) EmbedTime() time.Duration { return b.in.embedTime }

// EvalBuild evaluates j's build (right) side resident, through the same
// path the materializing executor uses, so embedding behavior, model-call
// accounting, and the MVCC snapshot view are identical by construction.
func (ex *Executor) EvalBuild(ctx context.Context, j *EJoin) (*BuildSide, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled: %w", err)
	}
	right, err := ex.evalInput(ctx, j.Right, true, obs.AnalyzeFromContext(ctx))
	if err != nil {
		return nil, fmt.Errorf("plan: evaluating build input: %w", err)
	}
	return &BuildSide{in: right}, nil
}

// Stream is one open probe-side streaming execution over a resident
// build. Pull match blocks with Next; assemble the ExecResult with
// Finish; Close releases the pipeline (idempotent with Finish's caller
// draining or abandoning the stream early).
type Stream struct {
	ex    *Executor
	j     *EJoin
	lp    *loweredPipeline
	build *BuildSide
	// leftRows is the probe side's full post-predicate selection, known
	// at Open (predicates are evaluated once, not per block), so feedback
	// sees the same surviving-row sets as the materializing path even
	// when a LIMIT cuts the stream short.
	leftRows relational.Selection
}

// OpenStream lowers j's probe side over the resident build and opens the
// pipeline. limit > 0 installs a LIMIT short-circuit: the stream stops
// after limit matches and Finish marks the result Truncated. The caller
// must Close the returned stream.
func (ex *Executor) OpenStream(ctx context.Context, j *EJoin, build *BuildSide, limit int) (*Stream, error) {
	if !Streamable(j) {
		return nil, fmt.Errorf("plan: strategy %v is not streamable", j.Strategy)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled: %w", err)
	}
	lp, err := ex.lowerProbe(j, build.in)
	if err != nil {
		return nil, err
	}
	if limit > 0 {
		lp.limit = &exec.Limit{Input: lp.top, N: limit}
		lp.top = lp.limit
	}
	if err := lp.top.Open(ctx); err != nil {
		return nil, fmt.Errorf("plan: opening stream: %w", err)
	}
	leftRows := lp.scan.Rows()
	for _, f := range lp.filters {
		leftRows = f.Filter(leftRows)
	}
	return &Stream{ex: ex, j: j, lp: lp, build: build, leftRows: leftRows}, nil
}

// Next returns the next block of matches in the executed plan's
// orientation (probe=Left), ascending by (Left, Right) within the block
// and across blocks. Blocks whose probe rows produced no matches are
// skipped; nil marks end of stream.
func (s *Stream) Next(ctx context.Context) ([]core.Match, error) {
	for {
		b, err := s.lp.top.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		if len(b.Matches) == 0 {
			continue
		}
		return b.Matches, nil
	}
}

// LeftRows is the probe side's full post-predicate selection.
func (s *Stream) LeftRows() relational.Selection { return s.leftRows }

// Close releases the pipeline.
func (s *Stream) Close() error { return s.lp.top.Close() }

// Finish assembles the ExecResult for a drained (or limit/cancel-stopped)
// stream from the matches the caller accumulated: stats, per-operator
// accounting, trace spans, the swap flip back to query orientation, and
// the EXPLAIN ANALYZE tree when the context asks for one. Build-side
// model work is NOT included — callers add it once per build (see
// BuildSide.ModelCalls), since one build may feed many streams.
func (s *Stream) Finish(ctx context.Context, matches []core.Match) *ExecResult {
	j, lp := s.j, s.lp
	res := &ExecResult{
		Matches:   matches,
		Strategy:  j.Strategy,
		LeftRows:  s.leftRows,
		RightRows: s.build.in.rows,
		Streamed:  true,
	}
	if lp.limit != nil {
		res.Truncated = lp.limit.Truncated
	}
	if lp.threshold != nil && j.Precision == quant.PrecisionInt8 && lp.threshold.AllDemoted() {
		j.Precision = quant.PrecisionF32 // keep plan/stats honest about what ran
	}
	res.Stats = lp.coreStats()
	if lp.embed != nil {
		bs := lp.embed.BatchStats()
		res.Stats.ModelCalls += bs.ModelCalls
		res.Stats.EmbedTime += lp.embed.Stats().Elapsed
	}
	res.Ops = lp.opStats()
	s.ex.emitStreamSpans(ctx, j, lp, res)

	if j.Swapped {
		for i, m := range res.Matches {
			res.Matches[i] = core.Match{Left: m.Right, Right: m.Left, Sim: m.Sim}
		}
		res.LeftRows, res.RightRows = res.RightRows, res.LeftRows
	}
	if obs.AnalyzeFromContext(ctx) {
		res.Analysis = lp.analysis(j, s.build.in, res)
	}
	return res
}

// ExecuteStreaming runs the plan block-at-a-time. limit > 0 installs a
// LIMIT short-circuit: the stream stops after limit matches and the
// result is marked Truncated. Plans the streaming engine cannot run
// (naive strategy) fall back to the materializing Execute, so callers can
// use this as their single entry point.
func (ex *Executor) ExecuteStreaming(ctx context.Context, j *EJoin, limit int) (*ExecResult, error) {
	if !Streamable(j) {
		return ex.Execute(ctx, j)
	}
	build, err := ex.EvalBuild(ctx, j)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled after build: %w", err)
	}
	s, err := ex.OpenStream(ctx, j, build, limit)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	var matches []core.Match
	for {
		blk, err := s.Next(ctx)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		matches = append(matches, blk...)
	}

	res := s.Finish(ctx, matches)
	res.Stats.ModelCalls += build.ModelCalls()
	res.Stats.EmbedTime += build.EmbedTime()
	return res, nil
}

// lowerProbe assembles the probe-side pipeline for j over the resident
// build input.
func (ex *Executor) lowerProbe(j *EJoin, right *evaluatedInput) (*loweredPipeline, error) {
	pc, err := walkProbeChain(j.Left)
	if err != nil {
		return nil, err
	}
	ref := pc.scanNode.Ref
	lp := &loweredPipeline{
		scanNode: pc.scanNode,
		scan: &exec.Scan{
			Table:        ref.Table,
			Name:         ref.Name,
			Visible:      ref.Visible,
			VectorColumn: ref.VectorColumn,
			BlockRows:    ex.BlockRows,
		},
	}
	var src exec.Operator = lp.scan
	for _, n := range pc.above {
		switch t := n.(type) {
		case *Filter:
			if src == exec.Operator(lp.scan) {
				// Predicate pushdown: a filter directly above the scan is
				// fused into the scan's selection (its effect shows up in
				// the scan node's observed rows).
				lp.scan.Preds = append(lp.scan.Preds, t.Preds...)
				continue
			}
			// A filter above E_µ stays above it: the un-pushed-down plan
			// embeds every scanned row, and streaming must do the same
			// work to report the same stats.
			rf := &exec.RowFilter{Input: src, Table: ref.Table, Preds: t.Preds}
			lp.filters = append(lp.filters, rf)
			lp.filterNodes = append(lp.filterNodes, t)
			src = rf
		case *Embed:
			if ref.VectorColumn != "" {
				lp.embedNode = t // pass-through: scan projects the vectors
				continue
			}
			lp.embed = &exec.Embed{
				Input:   src,
				Table:   ref.Table,
				Column:  t.Column,
				Model:   t.Model,
				Store:   ex.Store,
				Threads: ex.Options.Threads,
			}
			lp.embedNode = t
			src = lp.embed
		}
	}
	if lp.embed == nil && ref.VectorColumn == "" {
		return nil, fmt.Errorf("plan: strategy %v requires embedded inputs (missing Embed node?)", j.Strategy)
	}

	switch j.Strategy {
	case cost.StrategyIndex:
		op, err := ex.lowerIndexProbe(j, right)
		if err != nil {
			return nil, err
		}
		op.Input = src
		lp.index = op
		lp.top = op
	case cost.StrategyNLJ, cost.StrategyTensor:
		if right.embeddings == nil {
			return nil, fmt.Errorf("plan: strategy %v requires embedded inputs (missing Embed node?)", j.Strategy)
		}
		if j.Spec.Kind == TopKJoin {
			lp.topk = &exec.TopKProbe{
				Input:    src,
				K:        j.Spec.K,
				Residual: j.Spec.Threshold,
				Opts:     ex.Options,
			}
			lp.topk.Build, lp.topk.BuildRows = right.embeddings, right.rows
			lp.top = lp.topk
		} else {
			lp.threshold = &exec.ThresholdProbe{
				Input:          src,
				Threshold:      j.Spec.Threshold,
				Tensor:         j.Strategy == cost.StrategyTensor,
				Precision:      j.Precision,
				PrecisionSlack: j.PrecisionSlack,
				Opts:           ex.Options,
			}
			lp.threshold.Build, lp.threshold.BuildRows = right.embeddings, right.rows
			lp.top = lp.threshold
		}
	default:
		return nil, fmt.Errorf("plan: unsupported streaming strategy %v", j.Strategy)
	}
	return lp, nil
}

// lowerIndexProbe prepares the index probe: an attached index is used
// directly with the visibility mask, otherwise one is built once over the
// resident build embeddings (the build cost the optimizer charged for).
func (ex *Executor) lowerIndexProbe(j *EJoin, right *evaluatedInput) (*exec.IndexProbe, error) {
	idx := right.ref.Index
	if idx == nil {
		if right.embeddings == nil {
			return nil, fmt.Errorf("plan: index strategy without index or embeddings on %q", right.ref.Name)
		}
		built, err := core.BuildIndex(right.embeddings, hnsw.ConfigLo())
		if err != nil {
			return nil, err
		}
		opts := ex.Options
		opts.RightFilter = nil
		// Index rows are positions within right.rows; remap via BuildRows.
		return &exec.IndexProbe{Index: built, Cond: ex.indexCond(j), Opts: opts, BuildRows: right.rows}, nil
	}
	if idx.Len() < right.ref.Table.NumRows() {
		return nil, fmt.Errorf("plan: index over %q has %d entries, table has %d rows",
			right.ref.Name, idx.Len(), right.ref.Table.NumRows())
	}
	opts := ex.Options
	opts.RightFilter = relational.BitmapFromSelection(right.ref.Table.NumRows(), right.rows)
	return &exec.IndexProbe{Index: idx, Cond: ex.indexCond(j), Opts: opts}, nil
}

// coreStats returns the probe operator's aggregated kernel accounting.
func (lp *loweredPipeline) coreStats() core.Stats {
	switch {
	case lp.threshold != nil:
		return lp.threshold.CoreStats()
	case lp.topk != nil:
		return lp.topk.CoreStats()
	case lp.index != nil:
		return lp.index.CoreStats()
	}
	return core.Stats{}
}

// opStats snapshots every operator's statistics, source to sink.
func (lp *loweredPipeline) opStats() []exec.OpStats {
	ops := []exec.Operator{lp.scan}
	for _, f := range lp.filters {
		ops = append(ops, f)
	}
	if lp.embed != nil {
		ops = append(ops, lp.embed)
	}
	switch {
	case lp.threshold != nil:
		ops = append(ops, lp.threshold)
	case lp.topk != nil:
		ops = append(ops, lp.topk)
	case lp.index != nil:
		ops = append(ops, lp.index)
	}
	if lp.limit != nil {
		ops = append(ops, lp.limit)
	}
	out := make([]exec.OpStats, len(ops))
	for i, op := range ops {
		out[i] = op.Stats()
	}
	return out
}

// emitStreamSpans adds the aggregated per-phase spans after the stream
// drains, preserving the materializing path's span vocabulary ("embed",
// "join:<strategy>"/"index.probe", "rerank") for the slow-query log and
// trace consumers: one span per phase with summed durations, not one per
// block, so traces stay bounded regardless of stream length.
func (ex *Executor) emitStreamSpans(ctx context.Context, j *EJoin, lp *loweredPipeline, res *ExecResult) {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return
	}
	if lp.embed != nil {
		bs, st := lp.embed.BatchStats(), lp.embed.Stats()
		tr.AddSpan("embed", tr.Since()-st.Elapsed, st.Elapsed, map[string]int64{
			"hits": bs.Hits, "misses": bs.Misses,
			"merged": bs.Merged, "model_calls": bs.ModelCalls,
			"batches": st.Batches,
		})
	}
	name := "index.probe"
	if j.Strategy != cost.StrategyIndex {
		name = "join:" + strategyLabel(j.Strategy)
	}
	probe := lp.probeStats()
	jt := res.Stats.JoinTime
	tr.AddSpan(name, tr.Since()-jt, jt, map[string]int64{
		"comparisons": res.Stats.Comparisons,
		"matches":     int64(len(res.Matches)),
		"batches":     probe.Batches,
	})
	if rt := res.Stats.RerankTime; rt > 0 {
		tr.AddSpan("rerank", tr.Since()-rt, rt, nil)
	}
}

// probeStats returns the probe operator's OpStats.
func (lp *loweredPipeline) probeStats() exec.OpStats {
	switch {
	case lp.threshold != nil:
		return lp.threshold.Stats()
	case lp.topk != nil:
		return lp.topk.Stats()
	case lp.index != nil:
		return lp.index.Stats()
	}
	return exec.OpStats{}
}

// analysis builds the EXPLAIN ANALYZE tree for a streamed execution,
// mirroring the materializing tree's node names with per-operator
// observations (a LIMIT-truncated stream reports the rows each operator
// actually saw, which is the censoring EXPLAIN should surface).
func (lp *loweredPipeline) analysis(j *EJoin, right *evaluatedInput, res *ExecResult) *obs.NodeStats {
	scanSt := lp.scan.Stats()
	probe := lp.probeStats()
	left := &obs.NodeStats{
		Name:    lp.scanNode.Explain(),
		EstRows: int64(lp.scan.Table.NumRows()),
		ObsRows: scanSt.RowsOut,
		Elapsed: scanSt.Elapsed,
		Detail:  obs.AttrsDetail(map[string]int64{"batches": scanSt.Batches}),
	}
	for i, f := range lp.filters {
		st := f.Stats()
		left = &obs.NodeStats{
			Name:     lp.filterNodes[i].Explain(),
			EstRows:  left.EstRows,
			ObsRows:  st.RowsOut,
			Elapsed:  st.Elapsed,
			Children: []*obs.NodeStats{left},
		}
	}
	if lp.embedNode != nil {
		detail := "deferred"
		var elapsed int64
		obsRows := left.ObsRows
		if lp.embed != nil {
			st := lp.embed.Stats()
			bs := lp.embed.BatchStats()
			detail = obs.AttrsDetail(map[string]int64{
				"hits": bs.Hits, "misses": bs.Misses,
				"merged": bs.Merged, "model_calls": bs.ModelCalls,
				"batches": st.Batches,
			})
			elapsed = int64(st.Elapsed)
			obsRows = st.RowsOut
		}
		left = &obs.NodeStats{
			Name:     lp.embedNode.Explain(),
			EstRows:  left.EstRows,
			ObsRows:  obsRows,
			Elapsed:  time.Duration(elapsed),
			Detail:   detail,
			Children: []*obs.NodeStats{left},
		}
	}
	est := j.EstRows
	if est <= 0 {
		est = -1
	}
	detail := joinDetail(res.Stats)
	detail["batches"], detail["streamed"] = probe.Batches, 1
	if early := totalEarlyOut(res.Ops); early > 0 {
		detail["early_out"] = early
	}
	return &obs.NodeStats{
		Name:     j.Explain(),
		EstRows:  est,
		ObsRows:  int64(len(res.Matches)),
		Elapsed:  res.Stats.JoinTime,
		Detail:   obs.AttrsDetail(detail),
		Children: []*obs.NodeStats{left, right.analysis},
	}
}

// totalEarlyOut sums early-out counts across a pipeline's operators.
func totalEarlyOut(ops []exec.OpStats) int64 {
	var n int64
	for _, op := range ops {
		n += op.EarlyOutRows
	}
	return n
}
