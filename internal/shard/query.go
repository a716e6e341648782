package shard

// The router's two steps of the query lifecycle; service.Frontend runs
// the rest (deadline, resolve, admission, counters, trace). PlanQuery
// pins every shard's MVCC snapshot of both tables, makes the one global
// orientation and access-path decision, optimizes one plan per
// probe-shard x build-shard pair, and weighs the whole fan-out as one
// admission unit. Run evaluates each build shard's inner side once and
// streams every pair through plan.OpenStream into the incremental merge
// (merge.go) — producing results byte-identical to an equivalent
// unsharded engine.
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
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/service"
)

// Query serves one request through the shared query lifecycle, with the
// router as its backend. Safe for any number of concurrent callers.
func (r *Router) Query(ctx context.Context, req service.QueryRequest) (*service.QueryResult, error) {
	return r.front.Query(ctx, req)
}

// sideState is one join side's cross-shard view for a single query:
// each shard's pinned snapshot, the per-shard refs bound to them, and the
// local-to-global rowmap snapshot used to map stream matches and
// materialize output.
type sideState struct {
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
	ss := &sideState{pins: make([]service.PinnedTable, r.nshards)}
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
	for s, pt := range ss.pins {
		ss.refs[s] = pt.Bind(ref)
	}
	return ss, nil
}

// pairExec is one probe-shard x build-shard unit of a fan-out.
type pairExec struct {
	s, t int // probe (outer) and build (inner) shard indexes
	j    *plan.EJoin
}

// fanout is one planned scatter-gather: both sides in query orientation
// (for materializing) and in executed orientation, and the pair plans.
type fanout struct {
	r            *Router
	q            plan.Query
	left, right  *sideState
	probe, build *sideState
	swapped      bool
	execs        []pairExec
	rep          *plan.EJoin // labels a fan-out whose pairs are all empty
}

// PlanQuery is the router's plan step of the query lifecycle (see
// service.Backend).
func (r *Router) PlanQuery(q plan.Query) (service.QueryRun, int64, int64, error) {
	left, err := r.pinSide(q.Left)
	if err != nil {
		return nil, 0, 0, err
	}
	right, err := r.pinSide(q.Right)
	if err != nil {
		return nil, 0, 0, err
	}
	// Validate the join spec once up front (threshold range, k > 0) so a
	// malformed request fails as the client's error before any fan-out.
	if _, err := plan.NewNaivePlan(q); err != nil {
		return nil, 0, 0, service.MarkBadRequest(err)
	}

	// The one global orientation decision: the optimizer's reorder rule
	// over summed per-shard estimates. Per-shard physical rows partition
	// the global table exactly, so the sums equal the unsharded estimates.
	// Every pair then plans with reordering disabled.
	f := &fanout{r: r, q: q, left: left, right: right, probe: left, build: right}
	if q.Join.Kind == plan.ThresholdJoin {
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
			f.swapped = true
			f.probe, f.build = right, left
		}
	}

	// The one global access-path decision, like the orientation decision
	// above: Rules 4 and 5 evaluated over summed per-shard estimates, then
	// pinned onto every pair. Per-pair cost decisions would let slice
	// shapes flip strategies, and different strategies reassociate the
	// same similarity sums differently — breaking bit-identity with the
	// unsharded plan.
	choice := r.opt.ChooseSharded(q, f.probe.refs, f.build.refs, f.swapped)
	pairOpt := *r.opt
	pairOpt.ForceStrategy = &choice.Strategy
	if choice.PrecisionChosen {
		pairOpt.Precision = choice.Precision
	}

	// One plan per pair. Pairs where either side holds no physical rows
	// are planned (for the strategy label) but never executed — they can
	// produce neither matches nor model calls. Admission prices the
	// fan-out as one unit: the sum of every executed pair's footprint.
	knob := r.shards[0].JoinPrecision(q.Left.Name, q.Right.Name)
	var weight, estRows int64
	for s := 0; s < r.nshards; s++ {
		for t := 0; t < r.nshards; t++ {
			pq := plan.Query{Left: f.probe.refs[s], Right: f.build.refs[t], Model: q.Model, Join: q.Join}
			naive, err := plan.NewNaivePlan(pq)
			if err != nil {
				return nil, 0, 0, service.MarkBadRequest(err)
			}
			jp, err := pairOpt.Optimize(naive)
			if err != nil {
				return nil, 0, 0, err
			}
			// Rule 5 ran globally; restore the slack the forced-precision path
			// strips, so the runtime demotion guard still acts per pair.
			if jp.Quantizable() && choice.PrecisionChosen && knob == quant.PrecisionAuto {
				jp.PrecisionSlack = r.opt.PrecisionSlack
			}
			service.ApplyPrecisionKnob(jp, knob)
			if f.rep == nil {
				f.rep = jp
			}
			if pq.Left.Table.NumRows() == 0 || pq.Right.Table.NumRows() == 0 {
				continue
			}
			f.execs = append(f.execs, pairExec{s: s, t: t, j: jp})
			weight += plan.EstimateFootprint(jp, service.FootprintDim(r.model, pq.Left, pq.Right), r.exec.BlockRows)
			estRows += max(jp.EstRows, 0)
		}
	}
	return f, weight, estRows, nil
}

// Run is the router's run step: scatter every pair, merge the streams.
func (f *fanout) Run(ctx context.Context, req service.QueryRequest) (*service.QueryResult, error) {
	r, q, execs, probe, build := f.r, f.q, f.execs, f.probe, f.build
	start := time.Now()
	tr := obs.FromContext(ctx)
	r.counters.fanoutQueries.Add(1)
	r.counters.fanoutPairs.Add(int64(len(execs)))

	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()

	// Scatter: evaluate each build shard's inner side once (shared across
	// that shard's column of pairs — same snapshot, same rewritten
	// subtree), then launch one producer per pair.
	sp := tr.StartSpan("shard.fanout")
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
	sp.Attr("matches", int64(len(matches))).Attr("truncated", obs.BoolAttr(truncated)).Attr("wait_ns", mergeWait.Load()).End()

	for i, pe := range execs {
		if pairElapsed[i] > 0 {
			r.byShard.With(strconv.Itoa(pe.s)).Observe(pairElapsed[i])
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
		s, p := pe.j.Strategy.String(), service.EffectivePrecision(pe.j).String()
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
	if strategy == "" && f.rep != nil {
		strategy, precision = f.rep.Strategy.String(), service.EffectivePrecision(f.rep).String()
	}

	// Flip back to the query's orientation (the merge ran in executed
	// orientation; like the unsharded Finish, the flip does not re-sort).
	if f.swapped {
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
				"truncated":     obs.BoolAttr(truncated),
			}),
			Children: children,
		}
	}

	out := &service.QueryResult{
		Strategy:  strategy,
		Precision: precision,
		Matches:   matches,
		Stats:     agg,
		Plan:      root,
	}
	if req.Materialize {
		sp = tr.StartSpan("materialize")
		tbl, err := materializeShards(f.left, f.right, matches)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("shard: materializing result: %w", err)
		}
		sp.Attr("rows", int64(tbl.NumRows())).End()
		out.Table = tbl
	}
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

// kindLabel names a join kind for explain output.
func kindLabel(k plan.JoinKind) string {
	if k == plan.TopKJoin {
		return "topk"
	}
	return "threshold"
}
