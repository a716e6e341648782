package plan

// Lowering an optimized EJoin tree onto internal/exec, the one operator
// pipeline every strategy runs on. Both join inputs go through the same
// lowerInput (Scan with pushed-down predicates → Embed → RowFilter). The
// build (inner) side is drained as a single block and held resident; the
// probe (outer) side streams through a probe operator in fixed-size
// blocks. Every kernel sorts its matches by (probe, build) offset and
// blocks arrive in ascending probe order, so matches, similarities and
// their order do not depend on the block size — the contract the tests
// assert per query shape, alongside a brute-force oracle.

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/exec"
	"ejoin/internal/hnsw"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// stage is one plan node above an input's Scan and the operator it
// lowered to. op is nil when the node has no operator of its own: a Filter
// fused into the scan's selection, or an Embed that is deferred (the scan
// projects a vector column, or the naive join embeds per pair).
type stage struct {
	node Node
	op   exec.Operator
}

// loweredInput is one join input's Scan/Filter/Embed subtree as operators.
type loweredInput struct {
	scanNode *Scan
	scan     *exec.Scan
	// stages are the nodes stacked on the scan, in evaluation order.
	stages []stage
	// embedNode is the input's E_µ node, embed its operator (nil when the
	// node is deferred).
	embedNode *Embed
	embed     *exec.Embed
	top       exec.Operator
}

// lowerInput turns a Scan/Filter/Embed subtree into operators. blockRows
// is the scan's block size; evalEmbeds=false defers Embed nodes to the
// join (naive strategy).
func (ex *Executor) lowerInput(n Node, blockRows int, evalEmbeds bool) (*loweredInput, error) {
	switch t := n.(type) {
	case *Scan:
		in := &loweredInput{scanNode: t, scan: &exec.Scan{
			Table:        t.Ref.Table,
			Name:         t.Ref.Name,
			Visible:      t.Ref.Visible,
			VectorColumn: t.Ref.VectorColumn,
			BlockRows:    blockRows,
		}}
		in.top = in.scan
		return in, nil
	case *Filter:
		in, err := ex.lowerInput(t.Input, blockRows, evalEmbeds)
		if err != nil {
			return nil, err
		}
		if in.top == exec.Operator(in.scan) {
			// Predicate pushdown: nothing has consumed the scan's rows yet,
			// so the filter becomes part of the scan's selection.
			in.scan.Preds = append(in.scan.Preds, t.Preds...)
			in.stages = append(in.stages, stage{node: t})
			return in, nil
		}
		// A filter above E_µ stays above it: the un-pushed-down plan embeds
		// every scanned row, and that model work is what its stats report.
		in.top = &exec.RowFilter{Input: in.top, Table: in.scan.Table, Preds: t.Preds}
		in.stages = append(in.stages, stage{node: t, op: in.top})
		return in, nil
	case *Embed:
		in, err := ex.lowerInput(t.Input, blockRows, evalEmbeds)
		if err != nil {
			return nil, err
		}
		in.embedNode = t
		if !evalEmbeds || in.scan.VectorColumn != "" {
			in.stages = append(in.stages, stage{node: t})
			return in, nil
		}
		in.embed = &exec.Embed{
			Input:   in.top,
			Table:   in.scan.Table,
			Column:  t.Column,
			Model:   t.Model,
			Store:   ex.Store,
			Threads: ex.Options.Threads,
		}
		in.top = in.embed
		in.stages = append(in.stages, stage{node: t, op: in.embed})
		return in, nil
	default:
		return nil, fmt.Errorf("plan: unsupported input node %T", n)
	}
}

// vectorBacked reports whether an input's scan projects a stored vector
// column.
func vectorBacked(n Node) bool {
	s := findScan(n)
	return s != nil && s.Ref.VectorColumn != ""
}

// embedded reports whether the input's batches carry embeddings.
func (in *loweredInput) embedded() bool { return in.embed != nil || in.scan.VectorColumn != "" }

// textColumn is the column a deferred E_µ reads.
func (in *loweredInput) textColumn() string {
	if in.embedNode != nil && in.embedNode.Column != "" {
		return in.embedNode.Column
	}
	return in.scanNode.Ref.TextColumn
}

// opStats snapshots the input's operators, source to sink.
func (in *loweredInput) opStats() []exec.OpStats {
	out := []exec.OpStats{in.scan.Stats()}
	for _, st := range in.stages {
		if st.op != nil {
			out = append(out, st.op.Stats())
		}
	}
	return out
}

// embedAttrs is an embed span's cache/model split.
func embedAttrs(e *exec.Embed) map[string]int64 {
	bs := e.BatchStats()
	return map[string]int64{"hits": bs.Hits, "misses": bs.Misses, "merged": bs.Merged, "model_calls": bs.ModelCalls}
}

// BuildSide is a resident evaluated build (inner) input. It is reusable
// across multiple probe streams over plans sharing the same right side:
// the shard router evaluates one build per build shard and probes it with
// every probe shard's stream, paying the embedding cost once.
type BuildSide struct {
	in   *loweredInput
	rows relational.Selection // surviving global row ids
	emb  *mat.Matrix          // one row per entry of rows; nil when E_µ is deferred
	// perPair marks a naive join that runs the model inside the join, once
	// per compared pair: the build then holds texts instead of emb.
	perPair bool
	texts   []string
}

// ModelCalls is the model work the build evaluation performed. Callers
// sharing one build across streams add it to their aggregate exactly once.
func (b *BuildSide) ModelCalls() int64 {
	if b.in.embed == nil {
		return 0
	}
	return b.in.embed.BatchStats().ModelCalls
}

// EmbedTime is the build evaluation's embedding wall time.
func (b *BuildSide) EmbedTime() time.Duration {
	if b.in.embed == nil {
		return 0
	}
	return b.in.embed.Stats().Elapsed
}

// EvalBuild evaluates j's build (right) side resident: the lowered input
// is drained as one block of its whole selection, so the store sees a
// single EmbedAll call and nothing is concatenated.
func (ex *Executor) EvalBuild(ctx context.Context, j *EJoin) (*BuildSide, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled: %w", err)
	}
	// The naive strategy runs the model inside the join, once per compared
	// pair. With a vector column on either side there is no model to call
	// per pair, and the plan lowers as the prefetched NLJ.
	perPair := j.Strategy == cost.StrategyNaiveNLJ && !vectorBacked(j.Left) && !vectorBacked(j.Right)
	in, err := ex.lowerInput(j.Right, 0, !perPair)
	if err != nil {
		return nil, err
	}
	in.scan.BlockRows = in.scan.Table.NumRows() // >= any selection of it
	if err := in.top.Open(ctx); err != nil {
		return nil, fmt.Errorf("plan: evaluating build input: %w", err)
	}
	defer in.top.Close()
	blk, err := in.top.Next(ctx)
	if err != nil {
		return nil, fmt.Errorf("plan: evaluating build input: %w", err)
	}
	b := &BuildSide{in: in, perPair: perPair}
	switch {
	case blk != nil:
		b.rows, b.emb = blk.Rows, blk.Emb
	case in.embed != nil:
		b.emb = mat.New(0, in.embed.Model.Dim())
	case in.scan.VectorColumn != "":
		vc, err := in.scan.Table.Vectors(in.scan.VectorColumn)
		if err != nil {
			return nil, err
		}
		b.emb = mat.New(0, vc.Dim)
	}
	if perPair {
		col, err := in.scan.Table.Strings(in.textColumn())
		if err != nil {
			return nil, err
		}
		b.texts = make([]string, len(b.rows))
		for i, r := range b.rows {
			b.texts[i] = col[r]
		}
	}
	if tr := obs.FromContext(ctx); tr != nil && in.embed != nil {
		el := in.embed.Stats().Elapsed
		tr.AddSpan("embed", tr.Since()-el, el, embedAttrs(in.embed))
	}
	return b, nil
}

// probeOp is a pipeline's join operator.
type probeOp interface {
	exec.Operator
	CoreStats() core.Stats
}

// Stream is one open probe-side execution over a resident build. Pull
// match blocks with Next; assemble the ExecResult with Finish; Close
// releases the pipeline (idempotent with Finish's caller draining or
// abandoning the stream early).
type Stream struct {
	j     *EJoin
	build *BuildSide
	in    *loweredInput
	probe probeOp
	limit *exec.Limit
	top   exec.Operator
	// leftRows is the probe side's full post-predicate selection, known
	// at Open (predicates are evaluated once, not per block), so feedback
	// sees every surviving row even when a LIMIT cuts the stream short.
	leftRows relational.Selection
}

// OpenStream lowers j's probe side over the resident build and opens the
// pipeline. limit > 0 installs a LIMIT short-circuit: the stream stops
// after limit matches and Finish marks the result Truncated. The caller
// must Close the returned stream.
func (ex *Executor) OpenStream(ctx context.Context, j *EJoin, build *BuildSide, limit int) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled: %w", err)
	}
	if j.Strategy == cost.StrategyNaiveNLJ && j.Spec.Kind != ThresholdJoin {
		return nil, fmt.Errorf("plan: naive strategy supports only threshold joins")
	}
	in, err := ex.lowerInput(j.Left, ex.BlockRows, !build.perPair)
	if err != nil {
		return nil, err
	}
	s := &Stream{j: j, build: build, in: in}
	if s.probe, err = ex.lowerProbe(j, in, build); err != nil {
		return nil, err
	}
	s.top = s.probe
	if limit > 0 {
		s.limit = &exec.Limit{Input: s.top, N: limit}
		s.top = s.limit
	}
	if err := s.top.Open(ctx); err != nil {
		return nil, fmt.Errorf("plan: opening stream: %w", err)
	}
	s.leftRows = in.scan.Rows()
	for _, st := range in.stages {
		if f, ok := st.op.(*exec.RowFilter); ok {
			s.leftRows = f.Filter(s.leftRows)
		}
	}
	return s, nil
}

// lowerProbe picks j's join operator over the lowered probe input and the
// resident build.
func (ex *Executor) lowerProbe(j *EJoin, in *loweredInput, build *BuildSide) (probeOp, error) {
	if build.perPair {
		var mdl model.Model
		for _, e := range []*Embed{in.embedNode, build.in.embedNode} {
			if mdl == nil && e != nil {
				mdl = e.Model
			}
		}
		if mdl == nil {
			return nil, fmt.Errorf("plan: naive join has no model")
		}
		return &exec.NaiveProbe{
			Input:      in.top,
			Table:      in.scan.Table,
			Column:     in.textColumn(),
			Model:      mdl,
			BuildTexts: build.texts,
			BuildRows:  build.rows,
			Threshold:  j.Spec.Threshold,
			Opts:       ex.Options,
		}, nil
	}
	if !in.embedded() || (build.emb == nil && j.Strategy != cost.StrategyIndex) {
		return nil, fmt.Errorf("plan: strategy %v requires embedded inputs (missing Embed node?)", j.Strategy)
	}
	switch j.Strategy {
	case cost.StrategyIndex:
		op, err := ex.lowerIndexProbe(j, build)
		if err != nil {
			return nil, err
		}
		op.Input = in.top
		return op, nil
	case cost.StrategyNLJ, cost.StrategyTensor, cost.StrategyNaiveNLJ:
		if j.Spec.Kind == TopKJoin {
			op := &exec.TopKProbe{Input: in.top, K: j.Spec.K, Residual: j.Spec.Threshold, Opts: ex.Options}
			op.Build, op.BuildRows = build.emb, build.rows
			return op, nil
		}
		// A naive plan gets here with a vector column on either side: it
		// carries no precision and scans as the prefetched NLJ.
		op := &exec.ThresholdProbe{
			Input:          in.top,
			Threshold:      j.Spec.Threshold,
			Tensor:         j.Strategy == cost.StrategyTensor,
			Precision:      j.Precision,
			PrecisionSlack: j.PrecisionSlack,
			Opts:           ex.Options,
		}
		op.Build, op.BuildRows = build.emb, build.rows
		return op, nil
	}
	return nil, fmt.Errorf("plan: unsupported strategy %v", j.Strategy)
}

// lowerIndexProbe prepares the index probe: an attached index is used
// directly with the visibility mask, otherwise one is built once over the
// resident build embeddings (the build cost the optimizer charged for).
func (ex *Executor) lowerIndexProbe(j *EJoin, build *BuildSide) (*exec.IndexProbe, error) {
	ref := build.in.scanNode.Ref
	opts := ex.Options
	if ref.Index == nil {
		if build.emb == nil {
			return nil, fmt.Errorf("plan: index strategy without index or embeddings on %q", ref.Name)
		}
		built, err := core.BuildIndex(build.emb, hnsw.ConfigLo())
		if err != nil {
			return nil, err
		}
		opts.RightFilter = nil
		// Index rows are positions within build.rows; remap via BuildRows.
		return &exec.IndexProbe{Index: built, Cond: ex.indexCond(j), Opts: opts, BuildRows: build.rows}, nil
	}
	// The index must cover every physical row; it may cover MORE (under
	// live mutation the index runs ahead of the generation snapshot a
	// query pinned — rows appended after the snapshot are indexed but not
	// visible). The RightFilter below masks both tombstones and
	// beyond-snapshot entries, so a superset index stays correct.
	if ref.Index.Len() < ref.Table.NumRows() {
		return nil, fmt.Errorf("plan: index over %q has %d entries, table has %d rows",
			ref.Name, ref.Index.Len(), ref.Table.NumRows())
	}
	opts.RightFilter = relational.BitmapFromSelection(ref.Table.NumRows(), build.rows)
	return &exec.IndexProbe{Index: ref.Index, Cond: ex.indexCond(j), Opts: opts}, nil
}

// Next returns the next block of matches in the executed plan's
// orientation (probe=Left), ascending by (Left, Right) within the block
// and across blocks. Blocks whose probe rows produced no matches are
// skipped; nil marks end of stream.
func (s *Stream) Next(ctx context.Context) ([]core.Match, error) {
	for {
		b, err := s.top.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		if len(b.Matches) == 0 {
			continue
		}
		return b.Matches, nil
	}
}

// Close releases the pipeline.
func (s *Stream) Close() error { return s.top.Close() }

// Finish assembles the ExecResult for a drained (or limit/cancel-stopped)
// stream from the matches the caller accumulated: stats, per-operator
// accounting, trace spans, the swap flip back to query orientation, and
// the EXPLAIN ANALYZE tree when the context asks for one. Build-side
// model work is NOT included — callers add it once per build (see
// BuildSide.ModelCalls), since one build may feed many streams.
func (s *Stream) Finish(ctx context.Context, matches []core.Match) *ExecResult {
	j := s.j
	res := &ExecResult{
		Matches:   matches,
		Strategy:  j.Strategy,
		LeftRows:  s.leftRows,
		RightRows: s.build.rows,
		Truncated: s.limit != nil && s.limit.Truncated,
	}
	if tp, ok := s.probe.(*exec.ThresholdProbe); ok && j.Precision == quant.PrecisionInt8 && tp.AllDemoted() {
		j.Precision = quant.PrecisionF32 // keep plan/stats honest about what ran
	}
	res.Stats = s.probe.CoreStats()
	if s.in.embed != nil {
		res.Stats.ModelCalls += s.in.embed.BatchStats().ModelCalls
		res.Stats.EmbedTime += s.in.embed.Stats().Elapsed
	}
	res.Ops = append(s.in.opStats(), s.probe.Stats())
	if s.limit != nil {
		res.Ops = append(res.Ops, s.limit.Stats())
	}
	s.emitSpans(ctx, res)

	if j.Swapped {
		for i, m := range res.Matches {
			res.Matches[i] = core.Match{Left: m.Right, Right: m.Left, Sim: m.Sim}
		}
		res.LeftRows, res.RightRows = res.RightRows, res.LeftRows
	}
	if obs.AnalyzeFromContext(ctx) {
		res.Analysis = s.analysis(res)
	}
	return res
}

// ExecuteStreaming runs the plan: build side resident, probe side
// block-at-a-time. limit > 0 installs a LIMIT short-circuit: the stream
// stops after limit matches and the result is marked Truncated.
func (ex *Executor) ExecuteStreaming(ctx context.Context, j *EJoin, limit int) (*ExecResult, error) {
	build, err := ex.EvalBuild(ctx, j)
	if err != nil {
		return nil, err
	}
	// Checkpoint between build and probe: a request cancelled while
	// embedding must not start the (potentially large) comparison phase.
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

// emitSpans adds the probe side's per-phase spans after the stream
// drains ("embed", "join:<strategy>"/"index.probe", "rerank"): one span
// per phase with summed durations, not one per block, so traces stay
// bounded regardless of stream length.
func (s *Stream) emitSpans(ctx context.Context, res *ExecResult) {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return
	}
	if e := s.in.embed; e != nil {
		attrs, st := embedAttrs(e), e.Stats()
		attrs["batches"] = st.Batches
		tr.AddSpan("embed", tr.Since()-st.Elapsed, st.Elapsed, attrs)
	}
	name := "index.probe"
	if s.j.Strategy != cost.StrategyIndex {
		name = "join:" + strategyLabel(s.j.Strategy)
	}
	jt := res.Stats.JoinTime
	tr.AddSpan(name, tr.Since()-jt, jt, map[string]int64{
		"comparisons": res.Stats.Comparisons,
		"matches":     int64(len(res.Matches)),
		"batches":     s.probe.Stats().Batches,
	})
	if rt := res.Stats.RerankTime; rt > 0 {
		// The rerank interval is measured inside the index; anchor it at
		// the tail of the probe span it is a subset of.
		tr.AddSpan("rerank", tr.Since()-rt, rt, nil)
	}
}

// analysis renders one input's EXPLAIN ANALYZE subtree from its
// operators' stats, one node per plan node. Estimates propagate up from
// the scan (physical rows): the gap to a filter's observed rows is the
// predicate selectivity this engine cannot yet predict. A LIMIT-truncated
// probe reports the rows each operator actually saw, which is the
// censoring EXPLAIN should surface.
func (in *loweredInput) analysis() *obs.NodeStats {
	st := in.scan.Stats()
	n := &obs.NodeStats{
		Name:    in.scanNode.Explain(),
		EstRows: int64(in.scan.Table.NumRows()),
		ObsRows: st.RowsOut,
		Elapsed: st.Elapsed,
		Detail:  obs.AttrsDetail(map[string]int64{"batches": st.Batches}),
	}
	if len(in.scan.Preds) > 0 {
		// The scan read every visible row (the gap to est is the snapshot's
		// tombstone overhang); what it emitted shows on its fused Filter.
		n.ObsRows = st.RowsIn
	}
	for _, sg := range in.stages {
		up := &obs.NodeStats{Name: sg.node.Explain(), EstRows: n.EstRows, ObsRows: n.ObsRows, Children: []*obs.NodeStats{n}}
		switch op := sg.op.(type) {
		case *exec.Embed:
			attrs, ost := embedAttrs(op), op.Stats()
			attrs["batches"] = ost.Batches
			up.ObsRows, up.Elapsed, up.Detail = ost.RowsOut, ost.Elapsed, obs.AttrsDetail(attrs)
		case *exec.RowFilter:
			up.ObsRows, up.Elapsed = op.Stats().RowsOut, op.Stats().Elapsed
		default:
			if _, ok := sg.node.(*Embed); ok {
				up.Detail = "deferred"
			} else {
				up.ObsRows = st.RowsOut // filter fused into the scan
			}
		}
		n = up
	}
	return n
}

// analysis builds the EXPLAIN ANALYZE tree of an execution: the join node
// over both inputs' subtrees, probe first.
func (s *Stream) analysis(res *ExecResult) *obs.NodeStats {
	est := s.j.EstRows
	if est <= 0 {
		est = -1 // hand-built plans carry no estimate
	}
	detail := joinDetail(res.Stats)
	detail["batches"] = s.probe.Stats().Batches
	var early int64
	for _, op := range res.Ops {
		early += op.EarlyOutRows
	}
	if early > 0 {
		detail["early_out"] = early
	}
	return &obs.NodeStats{
		Name:     s.j.Explain(),
		EstRows:  est,
		ObsRows:  int64(len(res.Matches)),
		Elapsed:  res.Stats.JoinTime,
		Detail:   obs.AttrsDetail(detail),
		Children: []*obs.NodeStats{s.in.analysis(), s.build.in.analysis()},
	}
}
