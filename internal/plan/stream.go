package plan

// Lowering an optimized EJoin tree onto internal/exec, the one operator
// pipeline both strategies run on. Both join inputs go through the same
// lowerInput: a Scan with its predicates fused, whose E_µ is the scan
// itself, projecting each block from the table's resident column chunks
// (or from a precomputed vector column). The build (inner) side is
// drained as a single block and held resident; the probe (outer) side
// streams through a probe operator in fixed-size blocks. Every kernel
// sorts its matches by (probe, build) offset and blocks arrive in
// ascending probe order, so matches, similarities and their order do not
// depend on the block size — the contract the tests assert per query
// shape, alongside a brute-force oracle.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/exec"
	"ejoin/internal/hnsw"
	"ejoin/internal/mat"
	"ejoin/internal/obs"
	"ejoin/internal/relational"
)

// loweredInput is one join input's Scan/Filter/Embed subtree as one
// operator: every node above the Scan is served by it, a Filter fused into
// its selection and an Embed by projecting the table's resident column
// chunks or a vector column.
type loweredInput struct {
	scanNode *Scan
	scan     *exec.Scan
	// stages are the nodes stacked on the scan, in evaluation order.
	stages []Node
	// embedNode is the input's E_µ node (nil without one).
	embedNode *Embed
}

// lowerInput turns a Scan/Filter/Embed subtree into operators. blockRows
// is the scan's block size. A text column is read from the store's column
// chunks, keyed by the table's incarnation, so it needs both.
func (ex *Executor) lowerInput(n Node, blockRows int) (*loweredInput, error) {
	switch t := n.(type) {
	case *Scan:
		return &loweredInput{scanNode: t, scan: &exec.Scan{
			Table:        t.Ref.Table,
			Name:         t.Ref.Name,
			Visible:      t.Ref.Visible,
			VectorColumn: t.Ref.VectorColumn,
			BlockRows:    blockRows,
		}}, nil
	case *Filter:
		in, err := ex.lowerInput(t.Input, blockRows)
		if err != nil {
			return nil, err
		}
		// The filter becomes part of the scan's selection. The optimizer
		// pushed it below E_µ; a hand-built plan with σ above E_µ means
		// the same rows (the E-Selection equivalence), so only the
		// survivors are embedded either way.
		in.scan.Preds = append(in.scan.Preds, t.Preds...)
		in.stages = append(in.stages, t)
		return in, nil
	case *Embed:
		in, err := ex.lowerInput(t.Input, blockRows)
		if err != nil {
			return nil, err
		}
		in.embedNode = t
		in.stages = append(in.stages, t)
		if in.scan.VectorColumn != "" {
			return in, nil
		}
		switch {
		case ex.Store == nil:
			return nil, fmt.Errorf("plan: embedding %s.%s needs an executor with an embedding store", in.scan.Name, t.Column)
		case in.scan.Table.Incarnation() == 0:
			return nil, fmt.Errorf("plan: embedding %s.%s needs a table with an incarnation", in.scan.Name, t.Column)
		}
		in.scan.Embedded = &exec.EmbeddedColumn{Store: ex.Store, Model: t.Model, Column: t.Column, Threads: ex.Options.Threads}
		return in, nil
	default:
		return nil, fmt.Errorf("plan: unsupported input node %T", n)
	}
}

// embedded reports whether the input's batches carry embeddings.
func (in *loweredInput) embedded() bool {
	return in.scan.VectorColumn != "" || in.scan.Embedded != nil
}

// embedStats is the input's E_µ account: the scan reading column chunks.
// ok is false when E_µ did not run in this input.
func (in *loweredInput) embedStats() (st exec.OpStats, bs embstore.BatchStats, ok bool) {
	if in.scan.Embedded == nil {
		return st, bs, false
	}
	return in.scan.EmbedStats(), in.scan.BatchStats(), true
}

// opStats snapshots the input's operators, source to sink; a scan
// serving E_µ from column chunks reports that work as an "embed" operator.
func (in *loweredInput) opStats() []exec.OpStats {
	out := []exec.OpStats{in.scan.Stats()}
	if in.scan.Embedded != nil {
		out = append(out, in.scan.EmbedStats())
	}
	return out
}

// embedAttrs is an embed span's cache/spill/model split.
func embedAttrs(bs embstore.BatchStats) map[string]int64 {
	return map[string]int64{"hits": bs.Hits, "misses": bs.Misses, "restored": bs.Restored, "merged": bs.Merged, "model_calls": bs.ModelCalls}
}

// BuildSide is a resident evaluated build (inner) input, probed by one
// stream or several: the shard router evaluates one build per build shard,
// gathers them with MergeBuilds into one build keyed by global row id,
// and probes that with every probe shard's stream, paying the embedding
// cost once.
type BuildSide struct {
	// ins are the lowered inputs the build was evaluated from: one, or a
	// merged build's parts. ins[0] supplies the model and the table label.
	ins  []*loweredInput
	rows relational.Selection // surviving global row ids
	emb  *mat.Matrix          // one row per entry of rows; nil without E_µ
	// buf is a merged build's recycled embedding storage (nil otherwise).
	buf *[]float32
}

// ModelCalls is the model work the build evaluation performed. Callers
// sharing one build across streams add it to their aggregate exactly once.
func (b *BuildSide) ModelCalls() (n int64) {
	for _, in := range b.ins {
		_, bs, _ := in.embedStats()
		n += bs.ModelCalls
	}
	return n
}

// EmbedTime is the build evaluation's embedding wall time, summed over a
// merged build's parts.
func (b *BuildSide) EmbedTime() (d time.Duration) {
	for _, in := range b.ins {
		st, _, _ := in.embedStats()
		d += st.Elapsed
	}
	return d
}

// Release lets later queries reuse the build's gathered embeddings; call
// it once no stream over the build is open. A build never released is
// simply garbage collected.
func (b *BuildSide) Release() {
	for _, in := range b.ins {
		in.scan.Release()
	}
	if b.buf != nil {
		*b.buf = (*b.buf)[:0]
		mergeBufs.Put(b.buf)
		b.buf = nil
	}
}

// mergeBufs recycles merged builds' embedding storage across queries.
var mergeBufs sync.Pool // of *[]float32

// MergeBuilds gathers builds evaluated over disjoint parts of one table
// into one build keyed by global row id; rowmaps[i] maps part i's row ids
// to global ones. Each part's rows ascend and each rowmap strictly
// increases, so a k-way merge by mapped id needs no sort, and the merged
// build holds, row for row, the build of the whole table. The parts'
// embeddings are copied into recycled storage and the parts released.
// The merged build's row ids are no part's, so an index probe over it
// always builds its own index.
func MergeBuilds(parts []*BuildSide, rowmaps [][]int) *BuildSide {
	out := &BuildSide{}
	n, dim := 0, 0
	for _, p := range parts {
		out.ins = append(out.ins, p.ins...)
		n += len(p.rows)
		if p.emb != nil {
			dim = p.emb.ColsN
		}
	}
	out.buf, _ = mergeBufs.Get().(*[]float32)
	if out.buf == nil || cap(*out.buf) < n*dim {
		data := make([]float32, 0, n*dim)
		out.buf = &data
	}
	data := (*out.buf)[:0]
	out.rows = make(relational.Selection, 0, n)
	pos := make([]int, len(parts))
	for len(out.rows) < n {
		best, gid := -1, 0
		for i, p := range parts {
			if pos[i] < len(p.rows) {
				if g := rowmaps[i][p.rows[pos[i]]]; best < 0 || g < gid {
					best, gid = i, g
				}
			}
		}
		p, r := parts[best], pos[best]
		pos[best]++
		out.rows = append(out.rows, gid)
		if p.emb != nil {
			data = append(data, p.emb.Row(r)...)
		}
	}
	*out.buf = data
	if dim > 0 {
		out.emb = &mat.Matrix{RowsN: n, ColsN: dim, Data: data}
	}
	for _, p := range parts {
		p.Release()
	}
	return out
}

// analysis is the build input's EXPLAIN ANALYZE subtree; a merged build
// hangs its parts' subtrees under one node.
func (b *BuildSide) analysis() *obs.NodeStats {
	if b.buf == nil {
		return b.ins[0].analysis()
	}
	n := &obs.NodeStats{Name: fmt.Sprintf("MergeBuilds(parts=%d)", len(b.ins)), ObsRows: int64(len(b.rows))}
	for _, in := range b.ins {
		c := in.analysis()
		n.EstRows += c.EstRows
		n.Children = append(n.Children, c)
	}
	return n
}

// EvalBuild evaluates j's build (right) side resident: the lowered input
// is drained as one block of its whole selection, so nothing is
// concatenated.
func (ex *Executor) EvalBuild(ctx context.Context, j *EJoin) (*BuildSide, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled: %w", err)
	}
	if err := executable(j.Strategy); err != nil {
		return nil, err
	}
	in, err := ex.lowerInput(j.Right, 0)
	if err != nil {
		return nil, err
	}
	in.scan.BlockRows = in.scan.Table.NumRows() // >= any selection of it
	if err := in.scan.Open(ctx); err != nil {
		return nil, fmt.Errorf("plan: evaluating build input: %w", err)
	}
	defer in.scan.Close()
	blk, err := in.scan.Next(ctx)
	if err != nil {
		return nil, fmt.Errorf("plan: evaluating build input: %w", err)
	}
	b := &BuildSide{ins: []*loweredInput{in}}
	switch {
	case blk != nil:
		b.rows, b.emb = blk.Rows, blk.Emb
	case in.scan.Embedded != nil:
		b.emb = mat.New(0, in.embedNode.Model.Dim())
	case in.scan.VectorColumn != "":
		vc, err := in.scan.Table.Vectors(in.scan.VectorColumn)
		if err != nil {
			return nil, err
		}
		b.emb = mat.New(0, vc.Dim)
	}
	if st, bs, ok := in.embedStats(); ok {
		if tr := obs.FromContext(ctx); tr != nil {
			tr.AddSpan("embed", tr.Since()-st.Elapsed, st.Elapsed, embedAttrs(bs))
		}
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
	// at Open (predicates are evaluated once, not per block), so
	// ExecResult.LeftRows holds every surviving row even when a LIMIT cuts
	// the stream short.
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
	in, err := ex.lowerInput(j.Left, ex.BlockRows)
	if err != nil {
		return nil, err
	}
	return ex.openStream(ctx, j, in, build, limit)
}

// openStream is OpenStream over an already lowered probe input.
func (ex *Executor) openStream(ctx context.Context, j *EJoin, in *loweredInput, build *BuildSide, limit int) (*Stream, error) {
	s := &Stream{j: j, build: build, in: in}
	var err error
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
	return s, nil
}

// lowerProbe picks j's join operator over the lowered probe input and the
// resident build.
func (ex *Executor) lowerProbe(j *EJoin, in *loweredInput, build *BuildSide) (probeOp, error) {
	if !in.embedded() || (build.emb == nil && j.Strategy != cost.StrategyIndex) {
		return nil, fmt.Errorf("plan: strategy %v requires embedded inputs (missing Embed node?)", j.Strategy)
	}
	switch j.Strategy {
	case cost.StrategyIndex:
		op, err := ex.lowerIndexProbe(j, build)
		if err != nil {
			return nil, err
		}
		op.Input = in.scan
		return op, nil
	case cost.StrategyTensor:
		if j.Spec.Kind == TopKJoin {
			op := &exec.TopKProbe{Input: in.scan, K: j.Spec.K, Residual: j.Spec.Threshold, Opts: ex.Options}
			op.Build, op.BuildRows = build.emb, build.rows
			return op, nil
		}
		op := &exec.ThresholdProbe{Input: in.scan, Threshold: j.Spec.Threshold, Opts: ex.Options}
		op.Build, op.BuildRows = build.emb, build.rows
		return op, nil
	}
	return nil, executable(j.Strategy)
}

// lowerIndexProbe prepares the index probe: an attached index is used
// directly with the visibility mask, otherwise (or over a merged build)
// one is built once over the resident build embeddings (the build cost
// the optimizer charged for).
func (ex *Executor) lowerIndexProbe(j *EJoin, build *BuildSide) (*exec.IndexProbe, error) {
	ref := build.ins[0].scanNode.Ref
	opts := ex.Options
	if ref.Index == nil || build.buf != nil {
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
	// The index must cover every physical row; it may cover more. The
	// RightFilter below masks both tombstones and entries beyond the
	// table's rows, so a superset index stays correct.
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
func (s *Stream) Close() error {
	err := s.top.Close()
	s.in.scan.Release()
	return err
}

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
	res.Stats = s.probe.CoreStats()
	if st, bs, ok := s.in.embedStats(); ok {
		res.Stats.ModelCalls += bs.ModelCalls
		res.Stats.EmbedTime += st.Elapsed
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
	// Lower the probe input first: a probe that cannot be lowered fails
	// the plan before the build side is embedded.
	in, err := ex.lowerInput(j.Left, ex.BlockRows)
	if err != nil {
		return nil, err
	}
	build, err := ex.EvalBuild(ctx, j)
	if err != nil {
		return nil, err
	}
	defer build.Release()
	// Checkpoint between build and probe: a request cancelled while
	// embedding must not start the (potentially large) comparison phase.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled after build: %w", err)
	}
	s, err := ex.openStream(ctx, j, in, build, limit)
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
// drains ("embed", "join:tensor"/"index.probe"): one span
// per phase with summed durations, not one per block, so traces stay
// bounded regardless of stream length.
func (s *Stream) emitSpans(ctx context.Context, res *ExecResult) {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return
	}
	if st, bs, ok := s.in.embedStats(); ok {
		attrs := embedAttrs(bs)
		attrs["batches"] = st.Batches
		tr.AddSpan("embed", tr.Since()-st.Elapsed, st.Elapsed, attrs)
	}
	name := "join:tensor"
	if s.j.Strategy == cost.StrategyIndex {
		name = "index.probe"
	}
	jt := res.Stats.JoinTime
	tr.AddSpan(name, tr.Since()-jt, jt, map[string]int64{
		"comparisons": res.Stats.Comparisons,
		"matches":     int64(len(res.Matches)),
		"batches":     s.probe.Stats().Batches,
	})
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
		up := &obs.NodeStats{Name: sg.Explain(), EstRows: n.EstRows, ObsRows: n.ObsRows, Children: []*obs.NodeStats{n}}
		_, isEmbed := sg.(*Embed)
		if ost, bs, ran := in.embedStats(); isEmbed && ran {
			attrs := embedAttrs(bs)
			attrs["batches"] = ost.Batches
			up.ObsRows, up.Elapsed, up.Detail = ost.RowsOut, ost.Elapsed, obs.AttrsDetail(attrs)
		} else {
			up.ObsRows = st.RowsOut // filter fused into the scan, or a vector column
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
		Children: []*obs.NodeStats{s.in.analysis(), s.build.analysis()},
	}
}
