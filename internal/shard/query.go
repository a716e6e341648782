package shard

// Scatter-gather query execution. The router resolves and plans queries
// itself (shard engines provide storage and accounting only): it pins
// every shard's MVCC snapshot of both tables, makes the one global
// orientation decision, optimizes one plan per probe-shard x build-shard
// pair, prices the whole fan-out as one admission unit, evaluates each
// build shard's inner side once, and streams every pair through
// plan.OpenStream into the incremental merge — producing results
// byte-identical to an equivalent unsharded engine.
//
// Cross-shard snapshot consistency: each shard's pin is atomic (its own
// MVCC generation), but the pins are taken one shard after another, so a
// query racing a mutation fan-out may see the mutation applied on some
// shards and not others — the same anomaly two independent engines would
// exhibit. Within any single shard the query is a consistent snapshot.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/sqlish"
)

// Query plans, admits, and executes one request across all shards. Safe
// for any number of concurrent callers.
func (r *Router) Query(ctx context.Context, req service.QueryRequest) (*service.QueryResult, error) {
	start := time.Now()
	tr, ctx := r.startTrace(ctx, routerQueryLabel(req), req.Explain)
	if req.Explain {
		ctx = obs.WithAnalyze(ctx)
	}
	res, err := r.query(ctx, req, start)
	if err != nil {
		r.counters.errors.Add(1)
		r.finishTrace(tr, "", "", err, nil)
		return nil, err
	}
	r.counters.queries.Add(1)
	r.obs.latency.Observe(res.Elapsed)
	res.RequestID = tr.ID()
	if snap := r.finishTrace(tr, res.Strategy, res.Precision, nil, res.Plan); snap != nil && req.Explain {
		res.Trace = snap
		res.PlanText = obs.RenderAnalyze(res.Plan)
	}
	return res, nil
}

func routerQueryLabel(req service.QueryRequest) string {
	if req.SQL != "" {
		return req.SQL
	}
	if j := req.Join; j != nil {
		return fmt.Sprintf("join %s.%s ~ %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
	}
	return ""
}

// sideState is one join side's cross-shard view for a single query:
// the bound reference, each shard's pinned snapshot, the per-shard refs
// built from them, and the local-to-global rowmap snapshot used to map
// stream matches and materialize output.
type sideState struct {
	ref    plan.TableRef
	pins   []service.PinnedTable
	refs   []plan.TableRef
	rowmap [][]int
	locs   []loc
}

// pinSide pins one side on every shard, then snapshots its routing state.
// Pins come first: rowmap entries are written before shard mutations
// (manifest write-ahead), so a rowmap snapshotted after the pin always
// covers every physical row the pin can reference.
func (r *Router) pinSide(ref plan.TableRef) (*sideState, error) {
	ss := &sideState{ref: ref, pins: make([]service.PinnedTable, r.nshards)}
	for s, eng := range r.shards {
		pt, ok := eng.PinnedTable(ref.Name)
		if !ok {
			return nil, fmt.Errorf("shard: shard %d is missing table %q", s, ref.Name)
		}
		ss.pins[s] = pt
	}
	r.mu.Lock()
	tm, ok := r.tables[canonical(ref.Name)]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("shard: table %q is not routed", ref.Name)
	}
	ss.rowmap = append([][]int(nil), tm.rowmap...)
	ss.locs = tm.locs
	r.mu.Unlock()

	ss.refs = make([]plan.TableRef, r.nshards)
	for s := range ss.refs {
		sr := ref
		sr.Table = ss.pins[s].Table
		sr.Visible = ss.pins[s].Visible
		sr.Index = nil
		// Mirror the engine's pin rule: an index is attached only when it is
		// built over the column this query joins on and covers the snapshot.
		if ss.pins[s].Index != nil && ref.VectorColumn != "" && ss.pins[s].IndexColumn == ref.VectorColumn {
			sr.Index = ss.pins[s].Index
		}
		ss.refs[s] = sr
	}
	return ss, nil
}

// pairExec is one probe-shard x build-shard unit of a fan-out.
type pairExec struct {
	s, t int // probe (outer) and build (inner) shard indexes
	j    *plan.EJoin
}

func (r *Router) query(ctx context.Context, req service.QueryRequest, start time.Time) (*service.QueryResult, error) {
	ecfg := &r.cfg.Engine
	timeout := req.Timeout
	if timeout > 0 && ecfg.MaxTimeout > 0 && timeout > ecfg.MaxTimeout {
		timeout = ecfg.MaxTimeout
	}
	if timeout <= 0 {
		timeout = ecfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("resolve")
	q, cacheHit, err := r.resolve(req)
	if err != nil {
		sp.End()
		return nil, service.MarkBadRequest(err)
	}
	sp.Attr("cache_hit", boolAttr(cacheHit)).End()

	left, err := r.pinSide(q.Left)
	if err != nil {
		return nil, err
	}
	right, err := r.pinSide(q.Right)
	if err != nil {
		return nil, err
	}

	sp = tr.StartSpan("plan")
	// Validate the join spec once up front (threshold range, k > 0) so a
	// malformed request fails as the client's error before any fan-out.
	if _, err := plan.NewNaivePlan(q); err != nil {
		sp.End()
		return nil, service.MarkBadRequest(err)
	}

	// The one global orientation decision, mirroring the optimizer's
	// reorder rule over summed per-shard estimates: per-shard physical rows
	// partition the global table exactly, so the sums equal the unsharded
	// estimates. Every pair then plans with reordering disabled.
	swapped := false
	if !r.noReorder && q.Join.Kind == plan.ThresholdJoin {
		sumL, sumR := 0, 0
		anyIdx := false
		for s := 0; s < r.nshards; s++ {
			sumL += plan.EstimateRefRows(left.refs[s])
			sumR += plan.EstimateRefRows(right.refs[s])
			if right.refs[s].Index != nil {
				anyIdx = true
			}
		}
		if sumL < sumR && !anyIdx {
			swapped = true
		}
	}
	origLeft, origRight := left, right
	probe, build := left, right
	if swapped {
		probe, build = right, left
	}

	// The one global access-path decision, like the orientation decision
	// above: Rules 4 and 5 evaluated over summed per-shard estimates, then
	// pinned onto every pair. Per-pair cost decisions would let slice
	// shapes flip strategies, and different strategies reassociate the
	// same similarity sums differently — breaking bit-identity with the
	// unsharded plan.
	choice := r.opt.ChooseSharded(q, probe.refs, build.refs, swapped)
	pairOpt := *r.opt
	pairOpt.ForceStrategy = &choice.Strategy
	if choice.PrecisionChosen {
		pairOpt.Precision = choice.Precision
	}

	// One plan per pair. Pairs where either side holds no physical rows
	// are planned (for the strategy label) but never executed — they can
	// produce neither matches nor model calls.
	knob := r.joinPrecision(q.Left.Name, q.Right.Name)
	var execs []pairExec
	var rep *plan.EJoin
	for s := 0; s < r.nshards; s++ {
		for t := 0; t < r.nshards; t++ {
			pq := plan.Query{Left: probe.refs[s], Right: build.refs[t], Model: q.Model, Join: q.Join}
			naive, err := plan.NewNaivePlan(pq)
			if err != nil {
				sp.End()
				return nil, service.MarkBadRequest(err)
			}
			jp, err := pairOpt.Optimize(naive)
			if err != nil {
				sp.End()
				return nil, err
			}
			// Rule 5 ran globally; restore the slack the forced-precision path
			// strips, so the runtime demotion guard still acts per pair.
			if jp.Quantizable() && choice.PrecisionChosen && knob == quant.PrecisionAuto {
				jp.PrecisionSlack = r.opt.PrecisionSlack
			}
			// Per-table precision knobs override cost-based selection, exactly
			// as in the engine: forced choices carry no slack for the runtime
			// demotion guard to act on.
			if jp.Quantizable() && knob != quant.PrecisionAuto {
				jp.Precision = knob
				jp.PrecisionSlack = 0
				jp.PrecisionEstimates = nil
			}
			if rep == nil {
				rep = jp
			}
			if probe.refs[s].Table.NumRows() == 0 || build.refs[t].Table.NumRows() == 0 {
				continue
			}
			execs = append(execs, pairExec{s: s, t: t, j: jp})
		}
	}

	// Admission prices the fan-out as one unit: the sum of every pair's
	// footprint, clamped like the engine clamps one giant join.
	var weight int64
	for _, pe := range execs {
		weight += plan.EstimateFootprint(pe.j, r.footprintDim(probe.refs[pe.s], build.refs[pe.t]), r.exec.BlockRows)
	}
	if weight > ecfg.AdmissionBytes {
		weight = ecfg.AdmissionBytes
	}
	sp.Attr("pairs", int64(len(execs))).Attr("weight_bytes", weight).End()

	sp = tr.StartSpan("admit")
	release, waited, err := r.admit(ctx, weight)
	if err != nil {
		sp.End()
		r.counters.rejected.Add(1)
		return nil, err
	}
	sp.Attr("waited", boolAttr(waited)).End()
	defer release()
	if waited {
		r.counters.admissionWaits.Add(1)
	}
	r.counters.inFlight.Add(1)
	defer r.counters.inFlight.Add(-1)
	r.counters.fanoutQueries.Add(1)
	r.counters.fanoutPairs.Add(int64(len(execs)))

	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()

	// Scatter: evaluate each build shard's inner side once (shared across
	// that shard's column of pairs — same snapshot, same rewritten
	// subtree), then launch one producer per pair.
	sp = tr.StartSpan("shard.fanout")
	buildPlans := make([]*plan.EJoin, r.nshards)
	for _, pe := range execs {
		if buildPlans[pe.t] == nil {
			buildPlans[pe.t] = pe.j
		}
	}
	builds := make([]*plan.BuildSide, r.nshards)
	berrs := make([]error, r.nshards)
	var bwg sync.WaitGroup
	nbuilds := 0
	for t, bp := range buildPlans {
		if bp == nil {
			continue
		}
		nbuilds++
		bwg.Add(1)
		go func(t int, bp *plan.EJoin) {
			defer bwg.Done()
			builds[t], berrs[t] = r.exec.EvalBuild(pctx, bp)
		}(t, bp)
	}
	bwg.Wait()
	for _, berr := range berrs {
		if berr != nil {
			sp.End()
			return nil, berr
		}
	}

	// A global LIMIT pushes into threshold pair streams (any prefix of the
	// merged ascending stream needs at most limit matches from each input)
	// but not top-k ones: which of a row's candidates survive re-selection
	// depends on every pair, so pairs must stream their full local top-ks.
	pairLimit := 0
	if q.Join.Kind == plan.ThresholdJoin {
		pairLimit = req.Limit
	}

	var mergeWait atomic.Int64
	results := make([]*plan.ExecResult, len(execs))
	pairElapsed := make([]time.Duration, len(execs))
	cursors := make([]*pairCursor, len(execs))
	var wg sync.WaitGroup
	for i, pe := range execs {
		ch := make(chan pairMsg)
		cursors[i] = &pairCursor{probe: pe.s, build: pe.t, ch: ch, waitNS: &mergeWait}
		wg.Add(1)
		go func(i int, pe pairExec, ch chan pairMsg) {
			defer wg.Done()
			defer close(ch)
			t0 := time.Now()
			lmap, rmap := probe.rowmap[pe.s], build.rowmap[pe.t]
			send := func(msg pairMsg) bool {
				select {
				case ch <- msg:
					return true
				case <-pctx.Done():
					return false
				}
			}
			st, err := r.exec.OpenStream(pctx, pe.j, builds[pe.t], pairLimit)
			if err != nil {
				send(pairMsg{err: err})
				return
			}
			defer st.Close()
			for {
				if pctx.Err() != nil {
					// Request cancelled or merger stopped early; Finish below
					// still records the partial stats this pair accumulated.
					break
				}
				blk, err := st.Next(pctx)
				if err != nil {
					send(pairMsg{err: err})
					return
				}
				if blk == nil {
					break
				}
				if !send(pairMsg{blk: mapBlock(blk, lmap, rmap)}) {
					// Merger stopped early (limit or error); Finish below still
					// records the partial stats this pair accumulated.
					break
				}
			}
			results[i], pairElapsed[i] = st.Finish(pctx, nil), time.Since(t0)
		}(i, pe, ch)
	}
	sp.Attr("pairs", int64(len(execs))).Attr("builds", int64(nbuilds)).End()

	// Gather: merge the bounded streams incrementally.
	sp = tr.StartSpan("shard.merge")
	var matches []core.Match
	truncated := false
	var mergeErr error
	if q.Join.Kind == plan.TopKJoin {
		var perProbe [][]*pairCursor
		for s := 0; s < r.nshards; s++ {
			var cs []*pairCursor
			for _, c := range cursors {
				if c.probe == s {
					cs = append(cs, c)
				}
			}
			if len(cs) > 0 {
				perProbe = append(perProbe, cs)
			}
		}
		matches, truncated, mergeErr = mergeTopK(perProbe, q.Join.K, req.Limit)
	} else {
		matches, truncated, mergeErr = mergeThreshold(cursors, req.Limit)
	}
	pcancel()
	wg.Wait()
	r.counters.mergeWaitNS.Add(mergeWait.Load())
	// A cancelled request must fail even if the merge drained (producers
	// may EOS before observing cancellation): the contract is the
	// unsharded engine's, whose executor checks its context per block.
	if mergeErr == nil {
		mergeErr = ctx.Err()
	}
	if mergeErr != nil {
		sp.End()
		return nil, mergeErr
	}
	if truncated {
		r.counters.truncated.Add(1)
	}
	sp.Attr("matches", int64(len(matches))).Attr("truncated", boolAttr(truncated)).Attr("wait_ns", mergeWait.Load()).End()

	for i, pe := range execs {
		if pairElapsed[i] > 0 {
			r.obs.byShard.With(strconv.Itoa(pe.s)).Observe(pairElapsed[i])
		}
	}

	// Aggregate work: every pair's probe-side stats, plus each shared
	// build's embedding work exactly once.
	var agg core.Stats
	for i := range execs {
		res := results[i]
		if res == nil {
			continue
		}
		agg.Add(res.Stats)
	}
	for _, b := range builds {
		if b == nil {
			continue
		}
		agg.ModelCalls += b.ModelCalls()
		agg.EmbedTime += b.EmbedTime()
	}

	strategy, precision := "", ""
	for _, pe := range execs {
		s, p := pe.j.Strategy.String(), effectivePrecisionLabel(pe.j)
		if strategy == "" {
			strategy, precision = s, p
			continue
		}
		if strategy != s {
			strategy = "mixed"
		}
		if precision != p {
			precision = "mixed"
		}
	}
	if strategy == "" && rep != nil {
		strategy, precision = rep.Strategy.String(), effectivePrecisionLabel(rep)
	}
	r.recordExecution(strategy, agg)

	// Flip back to the query's orientation (the merge ran in executed
	// orientation; like the unsharded Finish, the flip does not re-sort).
	if swapped {
		for i, m := range matches {
			matches[i] = core.Match{Left: m.Right, Right: m.Left, Sim: m.Sim}
		}
	}

	var root *obs.NodeStats
	if obs.AnalyzeFromContext(ctx) {
		var children []*obs.NodeStats
		var est int64
		for i, pe := range execs {
			if results[i] != nil && results[i].Analysis != nil {
				children = append(children, results[i].Analysis)
			}
			if pe.j.EstRows > 0 {
				est += pe.j.EstRows
			}
		}
		if est == 0 {
			est = -1
		}
		root = &obs.NodeStats{
			Name:    fmt.Sprintf("ShardMerge(%s, shards=%d, pairs=%d)", kindLabel(q.Join.Kind), r.nshards, len(execs)),
			EstRows: est,
			ObsRows: int64(len(matches)),
			Elapsed: time.Since(start),
			Detail: obs.AttrsDetail(map[string]int64{
				"merge_wait_ns": mergeWait.Load(),
				"truncated":     boolAttr(truncated),
			}),
			Children: children,
		}
	}

	out := &service.QueryResult{
		Strategy:      strategy,
		Precision:     precision,
		Matches:       matches,
		Stats:         agg,
		PlanCacheHit:  cacheHit,
		AdmittedBytes: weight,
		Plan:          root,
	}
	if req.Materialize {
		sp = tr.StartSpan("materialize")
		tbl, err := materializeShards(origLeft, origRight, matches)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("shard: materializing result: %w", err)
		}
		sp.Attr("rows", int64(tbl.NumRows())).End()
		out.Table = tbl
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// mapBlock copies one block of matches from shard-local to global row ids.
// Rowmaps are strictly increasing, so the block's (Left, Right) ascending
// order is preserved; a copy keeps pipeline-owned memory untouched.
func mapBlock(blk []core.Match, lmap, rmap []int) []core.Match {
	out := make([]core.Match, len(blk))
	for i, m := range blk {
		out[i] = core.Match{Left: lmap[m.Left], Right: rmap[m.Right], Sim: m.Sim}
	}
	return out
}

// footprintDim mirrors the engine's admission dimensionality rule over one
// pair's refs: the model's output dim, widened by any precomputed vector
// column's own dimensionality.
func (r *Router) footprintDim(refs ...plan.TableRef) int {
	dim := r.model.Dim()
	for _, ref := range refs {
		if ref.VectorColumn == "" || ref.Table == nil {
			continue
		}
		if vc, err := ref.Table.Vectors(ref.VectorColumn); err == nil && vc.Dim > dim {
			dim = vc.Dim
		}
	}
	return dim
}

// admit acquires one execution slot then the byte budget, mirroring the
// engine's ordering (slots bound CPU oversubscription, bytes bound memory).
func (r *Router) admit(ctx context.Context, weight int64) (release func(), waited bool, err error) {
	select {
	case r.slots <- struct{}{}:
	default:
		waited = true
		select {
		case r.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, true, fmt.Errorf("shard: admission wait aborted: %w", ctx.Err())
		}
	}
	bytesWaited, err := r.bytes.Acquire(ctx, weight)
	if err != nil {
		<-r.slots
		return nil, waited || bytesWaited, err
	}
	return func() {
		r.bytes.Release(weight)
		<-r.slots
	}, waited || bytesWaited, nil
}

// resolve turns the request into a bound plan.Query against the router's
// schema-only catalog, through the router plan cache for SQL text.
func (r *Router) resolve(req service.QueryRequest) (plan.Query, bool, error) {
	switch {
	case req.SQL != "" && req.Join != nil:
		return plan.Query{}, false, fmt.Errorf("shard: request has both sql and join spec")
	case req.SQL != "":
		text := strings.TrimSpace(req.SQL)
		cacheable := len(text) <= maxRouterCachedQueryLen
		gen := r.cat.Generation()
		if cacheable {
			if p, ok := r.plans.get(text, gen); ok {
				return p.Query(), true, nil
			}
		}
		p, err := sqlish.Prepare(text, r.cat, r.model)
		if err != nil {
			return plan.Query{}, false, err
		}
		if cacheable {
			r.plans.put(text, p)
		}
		return p.Query(), false, nil
	case req.Join != nil:
		q, err := r.bindJoinRequest(req.Join)
		return q, false, err
	default:
		return plan.Query{}, false, fmt.Errorf("shard: empty request: need sql or join spec")
	}
}

// maxRouterCachedQueryLen mirrors the engine's plan-cache key bound.
const maxRouterCachedQueryLen = 1 << 14

// bindJoinRequest resolves a structured join spec against the router
// catalog, mirroring the engine's binder.
func (r *Router) bindJoinRequest(jr *service.JoinRequest) (plan.Query, error) {
	var q plan.Query
	left, err := r.bindSide(jr.LeftTable, jr.LeftColumn)
	if err != nil {
		return q, err
	}
	right, err := r.bindSide(jr.RightTable, jr.RightColumn)
	if err != nil {
		return q, err
	}
	q.Left, q.Right = left, right
	q.Model = r.model

	switch strings.ToLower(jr.Kind) {
	case "", "threshold", "sim":
		var thr float32
		if jr.Threshold != nil {
			thr = float32(*jr.Threshold)
		}
		q.Join = plan.JoinSpec{Kind: plan.ThresholdJoin, Threshold: thr}
	case "topk", "top-k":
		if jr.K <= 0 {
			return q, fmt.Errorf("shard: topk join requires k > 0")
		}
		q.Join = plan.JoinSpec{Kind: plan.TopKJoin, K: jr.K, Threshold: -2}
		if jr.Threshold != nil {
			q.Join.Threshold = float32(*jr.Threshold)
		}
	default:
		return q, fmt.Errorf("shard: unknown join kind %q (want threshold or topk)", jr.Kind)
	}
	return q, nil
}

// bindSide resolves one table+column pair against the router catalog.
func (r *Router) bindSide(table, column string) (plan.TableRef, error) {
	var ref plan.TableRef
	t, ok := r.cat.Get(table)
	if !ok {
		return ref, fmt.Errorf("shard: unknown table %q", table)
	}
	idx := t.Schema().IndexOf(column)
	if idx < 0 {
		return ref, fmt.Errorf("shard: table %q has no column %q", table, column)
	}
	ref = plan.TableRef{Name: table, Table: t}
	switch t.Schema()[idx].Type {
	case relational.String:
		ref.TextColumn = column
	case relational.Vector:
		ref.VectorColumn = column
	default:
		return ref, fmt.Errorf("shard: join column %s.%s must be TEXT or VECTOR", table, column)
	}
	return ref, nil
}

// effectivePrecisionLabel mirrors the engine's reported precision: Auto
// and non-quantizable plans execute exact.
func effectivePrecisionLabel(j *plan.EJoin) string {
	if j.Precision == quant.PrecisionAuto || !j.Quantizable() {
		return quant.PrecisionF32.String()
	}
	return j.Precision.String()
}

// kindLabel names a join kind for explain output.
func kindLabel(k plan.JoinKind) string {
	if k == plan.TopKJoin {
		return "topk"
	}
	return "threshold"
}

// boolAttr renders a bool as a span attribute value.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
