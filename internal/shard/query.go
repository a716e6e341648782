package shard

// The router's two steps of the query lifecycle; service.Frontend runs
// the rest (deadline, resolve, admission, counters, trace). PlanQuery
// pins every shard's MVCC snapshot of both tables, makes the one global
// orientation decision, optimizes one tensor-scan plan per shard
// (probe shard s over build shard s), and weighs the whole fan-out as one
// admission unit. Run evaluates each build shard's inner side once,
// gathers the parts into one build keyed by global row id
// (plan.MergeBuilds), and streams every probe shard through it with
// plan.OpenStream into the incremental merge (merge.go) — the unsharded
// engine's plan, one build resident and the probe side streamed, so the
// results are byte-identical to an equivalent unsharded engine's.
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

// fanout is one planned scatter-gather: both sides in query orientation
// (for materializing) and in executed orientation, and one plan per shard.
type fanout struct {
	r            *Router
	q            plan.Query
	left, right  *sideState
	probe, build *sideState
	swapped      bool
	plans        []*plan.EJoin // plan s: probe shard s over build shard s
	estRows      int64
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

	// Per-shard physical rows partition the global table exactly, so the
	// summed per-shard estimates equal the unsharded ones: the output
	// estimate (from the query's left side, like the optimizer's) and the
	// one global orientation decision, the optimizer's reorder rule. Every
	// plan then plans with reordering disabled.
	f := &fanout{r: r, q: q, left: left, right: right, probe: left, build: right}
	sumL, sumR := 0, 0
	for s := 0; s < r.nshards; s++ {
		sumL += plan.EstimateRefRows(left.refs[s])
		sumR += plan.EstimateRefRows(right.refs[s])
	}
	f.estRows = int64(sumL)
	if q.Join.Kind == plan.TopKJoin {
		f.estRows *= int64(q.Join.K)
	} else if sumL < sumR {
		f.swapped = true
		f.probe, f.build = right, left
	}

	// One plan per shard: plan s lowers probe shard s through its Left and
	// build shard s through its Right. Admission prices the fan-out as one
	// unit, the sum of the plans' footprints: the merged build plus one
	// probe block per stream.
	var weight int64
	f.plans = make([]*plan.EJoin, r.nshards)
	for s := range f.plans {
		pq := plan.Query{Left: f.probe.refs[s], Right: f.build.refs[s], Model: q.Model, Join: q.Join}
		naive, err := plan.NewNaivePlan(pq)
		if err != nil {
			return nil, 0, 0, service.MarkBadRequest(err)
		}
		jp, err := r.opt.Optimize(naive)
		if err != nil {
			return nil, 0, 0, err
		}
		f.plans[s] = jp
		weight += plan.EstimateFootprint(jp, r.model.Dim(), r.exec.BlockRows)
	}
	return f, weight, f.estRows, nil
}

// Run is the router's run step: evaluate each build shard once, merge the
// parts into one build, stream every probe shard through it, and merge the
// streams.
func (f *fanout) Run(ctx context.Context, req service.QueryRequest) (*service.QueryResult, error) {
	r, q, probe := f.r, f.q, f.probe
	start := time.Now()
	tr := obs.FromContext(ctx)
	r.counters.fanoutQueries.Add(1)

	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()

	// Scatter: evaluate each non-empty build shard's inner side once,
	// concurrently, and gather the parts into one build keyed by global row
	// id. Probe shards with no physical rows, and every probe shard when
	// no build shard has any, can produce neither matches nor model calls.
	sp := tr.StartSpan("shard.fanout")
	parts := make([]*plan.BuildSide, r.nshards)
	berrs := make([]error, r.nshards)
	var bwg sync.WaitGroup
	for t, jp := range f.plans {
		if f.build.refs[t].Table.NumRows() == 0 {
			continue
		}
		bwg.Add(1)
		go func(t int, jp *plan.EJoin) {
			defer bwg.Done()
			parts[t], berrs[t] = r.exec.EvalBuild(pctx, jp)
		}(t, jp)
	}
	bwg.Wait()
	var (
		built   []*plan.BuildSide
		rowmaps [][]int
		streams []int // the probe shard of each stream
	)
	for t, b := range parts {
		if berrs[t] != nil {
			sp.End()
			return nil, berrs[t]
		}
		if b != nil {
			built = append(built, b)
			rowmaps = append(rowmaps, f.build.rowmap[t])
		}
	}
	var build *plan.BuildSide
	if len(built) > 0 {
		build = plan.MergeBuilds(built, rowmaps)
		for s := range f.plans {
			if probe.refs[s].Table.NumRows() > 0 {
				streams = append(streams, s)
			}
		}
	}
	r.counters.fanoutPairs.Add(int64(len(streams)))

	// Each stream's per-row top-k is final and each stream ascends by
	// (Left, Right), so a global LIMIT pushes into every stream: any prefix
	// of the merged stream needs at most limit matches from each.
	var mergeWait atomic.Int64
	results := make([]*plan.ExecResult, len(streams))
	elapsed := make([]time.Duration, len(streams))
	cursors := make([]*streamCursor, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		ch := make(chan streamMsg)
		cursors[i] = &streamCursor{ch: ch, waitNS: &mergeWait}
		wg.Add(1)
		go func(i, s int, ch chan streamMsg) {
			defer wg.Done()
			defer close(ch)
			t0 := time.Now()
			send := func(msg streamMsg) bool {
				select {
				case ch <- msg:
					return true
				case <-pctx.Done():
					return false
				}
			}
			st, err := r.exec.OpenStream(pctx, f.plans[s], build, req.Limit)
			if err != nil {
				send(streamMsg{err: err})
				return
			}
			defer st.Close()
			for {
				if pctx.Err() != nil {
					// Request cancelled or merger stopped early; Finish below
					// still records the partial stats this stream accumulated.
					break
				}
				blk, err := st.Next(pctx)
				if err != nil {
					send(streamMsg{err: err})
					return
				}
				if blk == nil {
					break
				}
				if !send(streamMsg{blk: mapBlock(blk, probe.rowmap[s])}) {
					// Merger stopped early (limit or error); Finish below still
					// records the partial stats this stream accumulated.
					break
				}
			}
			results[i], elapsed[i] = st.Finish(pctx, nil), time.Since(t0)
		}(i, s, ch)
	}
	sp.Attr("streams", int64(len(streams))).Attr("builds", int64(len(built))).End()

	// Gather: merge the bounded streams incrementally.
	sp = tr.StartSpan("shard.merge")
	matches, truncated, mergeErr := mergeThreshold(cursors, req.Limit)
	pcancel()
	wg.Wait()
	if build != nil {
		build.Release()
	}
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

	// Aggregate work: every stream's probe-side stats, plus the build's
	// embedding work exactly once.
	var agg core.Stats
	var children []*obs.NodeStats
	for i, s := range streams {
		if res := results[i]; res != nil {
			agg.Add(res.Stats)
			r.byShard.With(strconv.Itoa(s)).Observe(elapsed[i])
			if res.Analysis != nil {
				children = append(children, res.Analysis)
			}
		}
	}
	if build != nil {
		agg.ModelCalls += build.ModelCalls()
		agg.EmbedTime += build.EmbedTime()
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
		root = &obs.NodeStats{
			Name:    fmt.Sprintf("ShardMerge(%s, shards=%d, streams=%d)", kindLabel(q.Join.Kind), r.nshards, len(streams)),
			EstRows: f.estRows,
			ObsRows: int64(len(matches)),
			Elapsed: time.Since(start),
			Detail: obs.AttrsDetail(map[string]int64{
				"merge_wait_ns": mergeWait.Load(),
				"truncated":     obs.BoolAttr(truncated),
			}),
			Children: children,
		}
	}

	// Every plan has the pinned strategy.
	out := &service.QueryResult{
		Strategy: f.plans[0].Strategy.String(),
		Matches:  matches,
		Stats:    agg,
		Plan:     root,
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

// mapBlock copies one block of matches from the probe shard's local row
// ids to global ones; Right ids are already global (the merged build's).
// The rowmap is strictly increasing, so the block's (Left, Right)
// ascending order is preserved; a copy keeps pipeline-owned memory
// untouched.
func mapBlock(blk []core.Match, lmap []int) []core.Match {
	out := make([]core.Match, len(blk))
	for i, m := range blk {
		out[i] = core.Match{Left: lmap[m.Left], Right: m.Right, Sim: m.Sim}
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
