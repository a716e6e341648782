package plan

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/exec"
	"ejoin/internal/hnsw"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// Executor runs logical plans using the physical operators of package core.
type Executor struct {
	// Options tunes the physical operators (kernel, threads, memory budget).
	Options core.Options
	// IndexEf overrides probe beam width for index joins.
	IndexEf int
	// Store, when set, is the shared cross-query embedding store: Embed
	// nodes are evaluated through it, so repeated queries over the same
	// corpus reuse embeddings and concurrent queries share in-flight model
	// calls. Stats.ModelCalls then reports actual model work (misses), not
	// input cardinality.
	Store *embstore.Store
	// BlockRows is the streaming executor's probe-side block size
	// (ExecuteStreaming); <=0 uses exec.DefaultBlockSize.
	BlockRows int
}

// ExecResult is the output of executing a join plan. Matches carry global
// row ids into the original (pre-filter) left and right tables, in the
// query's original orientation even if the optimizer swapped inputs.
type ExecResult struct {
	Matches  []core.Match
	Stats    core.Stats
	Strategy cost.Strategy
	// LeftRows/RightRows are the selections that survived relational
	// predicates (original orientation).
	LeftRows  relational.Selection
	RightRows relational.Selection
	// Analysis is the EXPLAIN ANALYZE tree (estimated vs observed
	// cardinality, per-node wall time), mirroring the executed plan. Built
	// only when the context carries an obs.Trace.
	Analysis *obs.NodeStats
	// Streamed reports the block-at-a-time engine executed this plan
	// (false for the materializing path, including its naive fallback).
	Streamed bool
	// Truncated reports a streamed execution stopped early because its
	// LIMIT was satisfied: Matches holds exactly the first limit matches
	// and downstream consumers must treat observed cardinality as censored.
	Truncated bool
	// Ops are the streaming pipeline's per-operator statistics (rows
	// in/out, batches, early-out counts, self time); nil when materialized.
	Ops []exec.OpStats
}

// evaluatedInput is one join input after scan/filter/embed evaluation.
type evaluatedInput struct {
	ref        TableRef
	rows       relational.Selection // surviving global row ids
	embeddings *mat.Matrix          // one row per entry of rows
	modelCalls int64
	embedTime  time.Duration
	analysis   *obs.NodeStats // per-node observations (explain executions only)
}

// Execute runs the plan. The plan's structure is executed faithfully: for
// the naive strategy, Embed nodes are not pre-evaluated — the join embeds
// per compared pair, paying the quadratic model cost the cost model
// predicts, which is how the experiments quantify what the rewrites buy.
func (ex *Executor) Execute(ctx context.Context, j *EJoin) (*ExecResult, error) {
	evalEmbeds := j.Strategy != cost.StrategyNaiveNLJ
	// Analysis (the EXPLAIN ANALYZE tree) is built only when the context
	// asks for it: plain traced queries keep their spans cheap and skip
	// all per-node recording.
	analyze := obs.AnalyzeFromContext(ctx)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled: %w", err)
	}
	left, err := ex.evalInput(ctx, j.Left, evalEmbeds, analyze)
	if err != nil {
		return nil, fmt.Errorf("plan: evaluating left input: %w", err)
	}
	right, err := ex.evalInput(ctx, j.Right, evalEmbeds, analyze)
	if err != nil {
		return nil, fmt.Errorf("plan: evaluating right input: %w", err)
	}
	// Checkpoint between prefetch and join: a request cancelled while
	// embedding must not start the (potentially large) comparison phase.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: execute cancelled after prefetch: %w", err)
	}

	res, err := ex.join(ctx, j, left, right)
	if err != nil {
		return nil, err
	}
	res.Stats.ModelCalls += left.modelCalls + right.modelCalls
	res.Stats.EmbedTime += left.embedTime + right.embedTime

	if j.Swapped {
		for i, m := range res.Matches {
			res.Matches[i] = core.Match{Left: m.Right, Right: m.Left, Sim: m.Sim}
		}
		res.LeftRows, res.RightRows = res.RightRows, res.LeftRows
	}
	if analyze {
		est := j.EstRows
		if est <= 0 {
			est = -1 // hand-built plans carry no estimate
		}
		detail := joinDetail(res.Stats)
		res.Analysis = &obs.NodeStats{
			Name:     j.Explain(),
			EstRows:  est,
			ObsRows:  int64(len(res.Matches)),
			Elapsed:  res.Stats.JoinTime,
			Detail:   obs.AttrsDetail(detail),
			Children: []*obs.NodeStats{left.analysis, right.analysis},
		}
	}
	return res, nil
}

// joinDetail is the kernel accounting a join node shows under EXPLAIN
// ANALYZE: pairs decided and, for a tensor scan, S blocks walked and how
// many of its inner-loop steps it proved it could skip.
func joinDetail(st core.Stats) map[string]int64 {
	detail := map[string]int64{"comparisons": st.Comparisons}
	if st.Blocks > 0 {
		detail["blocks"] = int64(st.Blocks)
	}
	if st.KSteps > 0 {
		detail["k_steps"] = st.KSteps
		detail["k_skipped"] = st.KStepsSkipped
	}
	return detail
}

// evalInput walks a Scan/Filter/Embed subtree in its written order.
// evalEmbeds=false skips Embed nodes (naive strategy: the join operator
// itself invokes the model per pair). analyze=true additionally builds
// the per-node observation tree for EXPLAIN ANALYZE.
func (ex *Executor) evalInput(ctx context.Context, n Node, evalEmbeds, analyze bool) (*evaluatedInput, error) {
	switch t := n.(type) {
	case *Scan:
		start := time.Now()
		rows := relational.All(t.Ref.Table.NumRows())
		if t.Ref.Visible != nil {
			// MVCC visibility: the query pinned a generation snapshot and
			// only its live rows exist for this scan; tombstoned rows are
			// never compared, embedded, or matched.
			rows = t.Ref.Visible
		}
		out := &evaluatedInput{ref: t.Ref, rows: rows}
		if t.Ref.VectorColumn != "" {
			vc, err := t.Ref.Table.Vectors(t.Ref.VectorColumn)
			if err != nil {
				return nil, err
			}
			if t.Ref.Visible == nil {
				m, err := mat.FromFlat(vc.Len(), vc.Dim, vc.Data)
				if err != nil {
					return nil, err
				}
				m = m.Clone() // never mutate stored columns
				m.NormalizeRows()
				out.embeddings = m
			} else {
				m := mat.New(len(rows), vc.Dim)
				for i, r := range rows {
					copy(m.Row(i), vc.Row(r))
				}
				m.NormalizeRows()
				out.embeddings = m
			}
		}
		if analyze {
			// est = physical rows, obs = visible rows: the gap is the
			// snapshot's tombstone overhang.
			out.analysis = &obs.NodeStats{
				Name:    t.Explain(),
				EstRows: int64(t.Ref.Table.NumRows()),
				ObsRows: int64(len(rows)),
				Elapsed: time.Since(start),
			}
		}
		return out, nil

	case *Filter:
		in, err := ex.evalInput(ctx, t.Input, evalEmbeds, analyze)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sel, err := relational.And(in.ref.Table, t.Preds...)
		if err != nil {
			return nil, err
		}
		keep := relational.BitmapFromSelection(in.ref.Table.NumRows(), sel)
		var rows relational.Selection
		var kept []int // positions within in.rows that survive
		for pos, r := range in.rows {
			if keep.Get(r) {
				rows = append(rows, r)
				kept = append(kept, pos)
			}
		}
		out := &evaluatedInput{
			ref:        in.ref,
			rows:       rows,
			modelCalls: in.modelCalls,
			embedTime:  in.embedTime,
		}
		if in.embeddings != nil {
			g := mat.New(len(kept), in.embeddings.Cols())
			for i, pos := range kept {
				copy(g.Row(i), in.embeddings.Row(pos))
			}
			out.embeddings = g
		}
		if analyze {
			// est = the pre-selection (child) estimate: the gap is the
			// observed predicate selectivity this engine cannot yet predict.
			out.analysis = &obs.NodeStats{
				Name:     t.Explain(),
				EstRows:  childEst(in.analysis),
				ObsRows:  int64(len(rows)),
				Elapsed:  time.Since(start),
				Children: []*obs.NodeStats{in.analysis},
			}
		}
		return out, nil

	case *Embed:
		in, err := ex.evalInput(ctx, t.Input, evalEmbeds, analyze)
		if err != nil {
			return nil, err
		}
		if !evalEmbeds || in.embeddings != nil {
			// Naive strategy (the join embeds per pair), or already
			// embedded (vector column).
			if analyze {
				in.analysis = &obs.NodeStats{
					Name:     t.Explain(),
					EstRows:  childEst(in.analysis),
					ObsRows:  int64(len(in.rows)),
					Detail:   "deferred",
					Children: []*obs.NodeStats{in.analysis},
				}
			}
			return in, nil
		}
		col, err := in.ref.Table.Strings(t.Column)
		if err != nil {
			return nil, err
		}
		texts := make([]string, len(in.rows))
		for i, r := range in.rows {
			texts[i] = col[r]
		}
		start := time.Now()
		sp := obs.FromContext(ctx).StartSpan("embed")
		emb, bs, err := ex.embed(ctx, t.Model, texts)
		if err != nil {
			return nil, err
		}
		sp.Attr("hits", bs.Hits).Attr("misses", bs.Misses).
			Attr("merged", bs.Merged).Attr("model_calls", bs.ModelCalls).End()
		in.embedTime += time.Since(start)
		in.modelCalls += bs.ModelCalls
		in.embeddings = emb
		if analyze {
			in.analysis = &obs.NodeStats{
				Name:    t.Explain(),
				EstRows: childEst(in.analysis),
				ObsRows: int64(len(in.rows)),
				Elapsed: time.Since(start),
				Detail: obs.AttrsDetail(map[string]int64{
					"hits": bs.Hits, "misses": bs.Misses,
					"merged": bs.Merged, "model_calls": bs.ModelCalls,
				}),
				Children: []*obs.NodeStats{in.analysis},
			}
		}
		return in, nil

	default:
		return nil, fmt.Errorf("plan: unsupported input node %T", n)
	}
}

// childEst propagates a child's estimate upward (-1 when absent).
func childEst(child *obs.NodeStats) int64 {
	if child == nil {
		return -1
	}
	return child.EstRows
}

// join wraps the strategy dispatch in its trace span: "join:<strategy>"
// for scans, "index.probe" for index probes — plus a synthetic "rerank"
// span when the index reported exact-rescoring time (IVF-PQ).
func (ex *Executor) join(ctx context.Context, j *EJoin, left, right *evaluatedInput) (*ExecResult, error) {
	tr := obs.FromContext(ctx)
	name := "index.probe"
	if j.Strategy != cost.StrategyIndex {
		name = "join:" + strategyLabel(j.Strategy)
	}
	sp := tr.StartSpan(name)
	out, err := ex.joinDispatch(ctx, j, left, right)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Attr("comparisons", out.Stats.Comparisons).
		Attr("matches", int64(len(out.Matches))).End()
	if rt := out.Stats.RerankTime; rt > 0 && tr != nil {
		// The rerank interval is measured inside the index; anchor it at
		// the tail of the probe span it is a subset of.
		tr.AddSpan("rerank", tr.Since()-rt, rt, nil)
	}
	return out, err
}

// strategyLabel is the span-vocabulary name for a scan strategy.
func strategyLabel(s cost.Strategy) string {
	switch s {
	case cost.StrategyNaiveNLJ:
		return "naive-nlj"
	case cost.StrategyNLJ:
		return "nlj"
	case cost.StrategyTensor:
		return "tensor"
	default:
		return s.String()
	}
}

// joinDispatch dispatches to the physical strategy. Match offsets are
// remapped to global row ids before returning.
func (ex *Executor) joinDispatch(ctx context.Context, j *EJoin, left, right *evaluatedInput) (*ExecResult, error) {
	out := &ExecResult{Strategy: j.Strategy, LeftRows: left.rows, RightRows: right.rows}

	if j.Strategy == cost.StrategyNaiveNLJ {
		res, err := ex.naiveJoin(ctx, j, left, right)
		if err != nil {
			return nil, err
		}
		out.Matches = res.Matches
		out.Stats = res.Stats
		return out, nil
	}

	if left.embeddings == nil || (right.embeddings == nil && j.Strategy != cost.StrategyIndex) {
		return nil, fmt.Errorf("plan: strategy %v requires embedded inputs (missing Embed node?)", j.Strategy)
	}

	var res *core.Result
	var err error
	switch j.Strategy {
	case cost.StrategyNLJ:
		if j.Spec.Kind == TopKJoin {
			res, err = core.TensorTopK(ctx, left.embeddings, right.embeddings, j.Spec.K, ex.Options)
		} else {
			res, err = ex.thresholdScan(ctx, j, left, right, false)
		}
	case cost.StrategyTensor:
		if j.Spec.Kind == TopKJoin {
			res, err = core.TensorTopK(ctx, left.embeddings, right.embeddings, j.Spec.K, ex.Options)
		} else {
			res, err = ex.thresholdScan(ctx, j, left, right, true)
		}
	case cost.StrategyIndex:
		res, err = ex.indexJoin(ctx, j, left, right)
		if err != nil {
			return nil, err
		}
		// Index matches already carry global right ids.
		for _, m := range res.Matches {
			out.Matches = append(out.Matches, core.Match{Left: left.rows[m.Left], Right: m.Right, Sim: m.Sim})
		}
		out.Stats = res.Stats
		return out, nil
	default:
		return nil, fmt.Errorf("plan: unsupported strategy %v", j.Strategy)
	}
	if err != nil {
		return nil, err
	}
	// Range condition over top-k: apply the residual threshold.
	matches := res.Matches
	if j.Spec.Kind == TopKJoin && j.Spec.Threshold > -1 {
		filtered := matches[:0]
		for _, m := range matches {
			if m.Sim >= j.Spec.Threshold {
				filtered = append(filtered, m)
			}
		}
		matches = filtered
	}
	for _, m := range matches {
		out.Matches = append(out.Matches, core.Match{Left: left.rows[m.Left], Right: right.rows[m.Right], Sim: m.Sim})
	}
	out.Stats = res.Stats
	return out, nil
}

// thresholdScan executes a threshold scan at the plan's precision: exact
// F32 (tensor-blocked or tuple-at-a-time per the strategy), or the F16 /
// INT8 rungs of the precision ladder. Quantized scans run tuple-at-a-time
// — the memory-traffic reduction, not cache blocking, is what those rungs
// buy — and inputs are encoded on the fly from the prefetched float32
// embeddings (the planner charged for that pass).
func (ex *Executor) thresholdScan(ctx context.Context, j *EJoin, left, right *evaluatedInput, tensor bool) (*core.Result, error) {
	// The float32 inputs are released as soon as the quantized copies
	// exist, so the scan's steady-state residency is the quantized bytes
	// the precision planner budgeted for (the encode itself transiently
	// holds both).
	switch j.Precision {
	case quant.PrecisionF16:
		lq, rq := mat.EncodeF16(left.embeddings), mat.EncodeF16(right.embeddings)
		left.embeddings, right.embeddings = nil, nil
		return core.NLJF16(ctx, lq, rq, j.Spec.Threshold, ex.Options)
	case quant.PrecisionInt8:
		lq, rq := quant.EncodeInt8(left.embeddings), quant.EncodeInt8(right.embeddings)
		// The planner's int8 error constant assumes dense unit-norm
		// embeddings. The encoded scales give the exact bound for THIS
		// data; when a cost-based choice's promised slack cannot cover it
		// (sparse or near-one-hot vectors), demote to the exact scan
		// rather than silently drift past the promise. Forced precisions
		// (per-table knob, Optimizer.Precision) carry no slack and are an
		// explicit operator opt-in, so they never demote.
		if j.PrecisionSlack > 0 &&
			float64(quant.Int8DotErrorBound(lq.Cols(), lq.MaxScale(), rq.MaxScale())) > j.PrecisionSlack {
			j.Precision = quant.PrecisionF32 // keep plan/stats honest about what ran
			break
		}
		left.embeddings, right.embeddings = nil, nil
		return core.NLJI8(ctx, lq, rq, j.Spec.Threshold, ex.Options)
	case quant.PrecisionPQ:
		return nil, fmt.Errorf("plan: pq is an index access path, not a scan precision")
	}
	if tensor {
		return core.TensorJoin(ctx, left.embeddings, right.embeddings, j.Spec.Threshold, ex.Options)
	}
	return core.NLJ(ctx, left.embeddings, right.embeddings, j.Spec.Threshold, ex.Options)
}

func (ex *Executor) indexJoin(ctx context.Context, j *EJoin, left, right *evaluatedInput) (*core.Result, error) {
	idx := right.ref.Index
	if idx == nil {
		// Build one on the fly over the full right table (the build cost
		// the optimizer charged for).
		if right.embeddings == nil {
			return nil, fmt.Errorf("plan: index strategy without index or embeddings on %q", right.ref.Name)
		}
		built, err := core.BuildIndex(right.embeddings, hnsw.ConfigLo())
		if err != nil {
			return nil, err
		}
		// Embeddings rows are positions within right.rows; remap filter.
		cond, opts := ex.indexCond(j), ex.Options
		opts.RightFilter = nil
		res, err := core.IndexJoin(ctx, left.embeddings, built, cond, opts)
		if err != nil {
			return nil, err
		}
		for i, m := range res.Matches {
			res.Matches[i] = core.Match{Left: m.Left, Right: right.rows[m.Right], Sim: m.Sim}
		}
		return res, nil
	}
	// The index must cover every physical row; it may cover MORE (under
	// live mutation the index runs ahead of the generation snapshot a
	// query pinned — rows appended after the snapshot are indexed but not
	// visible). The RightFilter below masks both tombstones and
	// beyond-snapshot entries, so a superset index stays correct.
	if idx.Len() < right.ref.Table.NumRows() {
		return nil, fmt.Errorf("plan: index over %q has %d entries, table has %d rows",
			right.ref.Name, idx.Len(), right.ref.Table.NumRows())
	}
	opts := ex.Options
	opts.RightFilter = relational.BitmapFromSelection(right.ref.Table.NumRows(), right.rows)
	return core.IndexJoinWith(ctx, left.embeddings, idx, ex.indexCond(j), opts)
}

func (ex *Executor) indexCond(j *EJoin) core.IndexJoinCondition {
	cond := core.IndexJoinCondition{K: j.Spec.K, MinSim: -2, Ef: ex.IndexEf}
	if j.Spec.Kind == ThresholdJoin {
		// Range condition emulated by widened top-k probes (Figure 17).
		cond.K = 32
		cond.MinSim = j.Spec.Threshold
	} else if j.Spec.Threshold > -1 {
		cond.MinSim = j.Spec.Threshold
	}
	return cond
}

// naiveJoin executes the unoptimized per-pair-embedding join.
func (ex *Executor) naiveJoin(ctx context.Context, j *EJoin, left, right *evaluatedInput) (*core.Result, error) {
	if j.Spec.Kind != ThresholdJoin {
		return nil, fmt.Errorf("plan: naive strategy supports only threshold joins")
	}
	// With precomputed vectors there is no model to call per pair; the
	// naive plan degenerates to the prefetched NLJ (embedding a remaining
	// text side once).
	if left.embeddings != nil || right.embeddings != nil {
		if err := ex.ensureEmbedded(ctx, j.Left, left); err != nil {
			return nil, err
		}
		if err := ex.ensureEmbedded(ctx, j.Right, right); err != nil {
			return nil, err
		}
		res, err := core.NLJ(ctx, left.embeddings, right.embeddings, j.Spec.Threshold, ex.Options)
		if err != nil {
			return nil, err
		}
		remapped := make([]core.Match, len(res.Matches))
		for i, m := range res.Matches {
			remapped[i] = core.Match{Left: left.rows[m.Left], Right: right.rows[m.Right], Sim: m.Sim}
		}
		res.Matches = remapped
		return res, nil
	}
	mdl, lTexts, err := naiveTexts(j.Left, left)
	if err != nil {
		return nil, err
	}
	mdl2, rTexts, err := naiveTexts(j.Right, right)
	if err != nil {
		return nil, err
	}
	if mdl == nil {
		mdl = mdl2
	}
	if mdl == nil {
		return nil, fmt.Errorf("plan: naive join has no model")
	}
	res, err := core.NaiveNLJ(ctx, mdl, lTexts, rTexts, j.Spec.Threshold, ex.Options)
	if err != nil {
		return nil, err
	}
	remapped := make([]core.Match, len(res.Matches))
	for i, m := range res.Matches {
		remapped[i] = core.Match{Left: left.rows[m.Left], Right: right.rows[m.Right], Sim: m.Sim}
	}
	res.Matches = remapped
	return res, nil
}

// embed evaluates E_µ over texts: through the shared store when one is
// attached (cache hits and merged in-flight calls skip the model), through
// the parallel scheduler otherwise. The returned BatchStats carry the
// hit/miss split (all misses on the store-less path).
func (ex *Executor) embed(ctx context.Context, m model.Model, texts []string) (*mat.Matrix, embstore.BatchStats, error) {
	if ex.Store != nil {
		return ex.Store.EmbedAll(ctx, m, texts, embstore.BatchOptions{Threads: ex.Options.Threads})
	}
	bs := embstore.BatchStats{Misses: int64(len(texts)), ModelCalls: int64(len(texts))}
	emb, err := core.EmbedParallel(ctx, m, texts, ex.Options.Threads)
	if err != nil {
		return nil, embstore.BatchStats{}, err
	}
	return emb, bs, nil
}

// ensureEmbedded embeds in's surviving texts when embeddings are missing.
func (ex *Executor) ensureEmbedded(ctx context.Context, n Node, in *evaluatedInput) error {
	if in.embeddings != nil {
		return nil
	}
	mdl, texts, err := naiveTexts(n, in)
	if err != nil {
		return err
	}
	if mdl == nil {
		return fmt.Errorf("plan: input %q has neither embeddings nor a model", in.ref.Name)
	}
	sp := obs.FromContext(ctx).StartSpan("embed")
	emb, bs, err := ex.embed(ctx, mdl, texts)
	if err != nil {
		return err
	}
	sp.Attr("hits", bs.Hits).Attr("misses", bs.Misses).
		Attr("merged", bs.Merged).Attr("model_calls", bs.ModelCalls).End()
	in.embeddings = emb
	in.modelCalls += bs.ModelCalls
	return nil
}

func naiveTexts(n Node, in *evaluatedInput) (model.Model, []string, error) {
	var mdl model.Model
	var column string
	for cur := n; cur != nil; {
		switch t := cur.(type) {
		case *Embed:
			mdl, column = t.Model, t.Column
			cur = t.Input
		case *Filter:
			cur = t.Input
		case *Scan:
			cur = nil
		default:
			cur = nil
		}
	}
	if column == "" {
		column = in.ref.TextColumn
	}
	col, err := in.ref.Table.Strings(column)
	if err != nil {
		return nil, nil, err
	}
	texts := make([]string, len(in.rows))
	for i, r := range in.rows {
		texts[i] = col[r]
	}
	return mdl, texts, nil
}

// MaterializeResult builds the joined output table: left columns (l_),
// right columns (r_), and a similarity column, one row per match.
func MaterializeResult(q Query, res *ExecResult) (*relational.Table, error) {
	pairs := make([]relational.Pair, len(res.Matches))
	sims := make(relational.Float64Column, len(res.Matches))
	for i, m := range res.Matches {
		pairs[i] = relational.Pair{Left: m.Left, Right: m.Right}
		sims[i] = float64(m.Sim)
	}
	joined, err := relational.MaterializeJoin(q.Left.Table, q.Right.Table, pairs)
	if err != nil {
		return nil, err
	}
	return joined.WithColumn("similarity", sims)
}

// Run is the one-call path: build the naive plan, optimize, execute.
func Run(ctx context.Context, q Query, ex *Executor, opt *Optimizer) (*ExecResult, *EJoin, error) {
	naive, err := NewNaivePlan(q)
	if err != nil {
		return nil, nil, err
	}
	if opt == nil {
		opt = NewOptimizer()
	}
	optimized, err := opt.Optimize(naive)
	if err != nil {
		return nil, nil, err
	}
	if ex == nil {
		ex = &Executor{Options: core.Options{Kernel: vec.DefaultKernel()}}
	}
	res, err := ex.Execute(ctx, optimized)
	if err != nil {
		return nil, nil, err
	}
	return res, optimized, nil
}
