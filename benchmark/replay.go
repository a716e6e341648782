package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/shard"
	"ejoin/internal/sqlish"
	"ejoin/internal/vec"
)

// replayOps is how long a prefix of the workload the traced pass replays
// in-process; a slow workload replays as much of it as the time budget
// allows and says how much (trace.replayed_ops).
const replayOps = 200

var tableSchema = relational.Schema{
	{Name: "id", Type: relational.Int64},
	{Name: "name", Type: relational.String},
	{Name: "attr", Type: relational.Int64},
}

// engineConfig mirrors the server child: GOMAXPROCS 2 with two execution
// slots leaves each query one thread.
func engineConfig(w *workload) service.Config {
	return service.Config{
		Dim:           embedDim,
		StoreBytes:    w.StoreBytes,
		MaxConcurrent: serverProcs,
		Threads:       1,
		ExecBlockRows: w.BlockRows,
	}
}

// backend is what the replay needs from an Engine or a Router.
type backend interface {
	RegisterCSVWithPrecision(name string, schema relational.Schema, r io.Reader, replace bool, prec quant.Precision) (int, error)
	Query(ctx context.Context, req service.QueryRequest) (*service.QueryResult, error)
}

// load ingests the tables and runs the warm-up, as the HTTP set-up does.
func load(ctx context.Context, b backend, in *inputs) error {
	for _, t := range in.Tables {
		if _, err := b.RegisterCSVWithPrecision(t.Name, tableSchema, strings.NewReader(rowsCSV(t.Rows)), false, quant.PrecisionAuto); err != nil {
			return fmt.Errorf("ingesting %s: %w", t.Name, err)
		}
	}
	for _, o := range in.Warm {
		if _, err := b.Query(ctx, request(o)); err != nil {
			return fmt.Errorf("warm-up %q: %w", o.SQL, err)
		}
	}
	return nil
}

func request(o op) service.QueryRequest {
	return service.QueryRequest{SQL: o.SQL, Limit: o.Limit, Materialize: o.Rows}
}

// replay walks one in-process engine single-threaded through a prefix of
// the workload, in stages, recording a span around each call into a
// layer's public function.
type replay struct {
	eng   *service.Engine // default config: per-query tracing on
	quiet *service.Engine // same data, DisableTracing
	// router is set for the sharded workload only.
	router *shard.Router
	// on and off are the staged walk's planner and executor for the
	// spans-on and spans-off replays. Each has its own embedding store of
	// the workload's size, so a walk finds the cache in the state its own
	// history left it — not warmed by the engine that ran the same query
	// a moment earlier.
	on, off *walker
	dirs    []string
}

// walker plans and executes with its own optimizer and executor over the
// engine's catalog and model: the engine's own are not exported, and
// these are configured the same way.
type walker struct {
	opt *plan.Optimizer
	ex  *plan.Executor
}

func newWalker(w *workload, params cost.Params) *walker {
	bytes := w.StoreBytes
	if bytes <= 0 {
		bytes = 256 << 20 // the server's default
	}
	store := embstore.New(embstore.Config{MaxBytes: bytes})
	return &walker{
		opt: &plan.Optimizer{Params: params, Store: store},
		ex: &plan.Executor{
			Options:   core.Options{Kernel: vec.DefaultKernel(), Threads: 1, BudgetBytes: 32 << 20},
			Store:     store,
			BlockRows: w.BlockRows,
		},
	}
}

func newReplay(ctx context.Context, p paths, w *workload, in *inputs) (*replay, error) {
	r := &replay{}
	for _, quiet := range []bool{false, true} {
		cfg := engineConfig(w)
		cfg.DisableTracing = quiet
		if w.Durable {
			dir, err := os.MkdirTemp(filepath.Join(p.build, "tmp"), "replay-")
			if err != nil {
				return nil, err
			}
			r.dirs = append(r.dirs, dir)
			cfg.DataDir = dir
		}
		eng, err := service.Open(cfg)
		if err != nil {
			r.close()
			return nil, err
		}
		if quiet {
			r.quiet = eng
		} else {
			r.eng = eng
		}
		if err := load(ctx, eng, in); err != nil {
			r.close()
			return nil, err
		}
	}
	if w.Shards > 1 {
		router, err := shard.Open(shard.Config{Shards: w.Shards, Partitioner: "hash", Engine: engineConfig(w)})
		if err != nil {
			r.close()
			return nil, err
		}
		r.router = router
		if err := load(ctx, router, in); err != nil {
			r.close()
			return nil, err
		}
	}
	r.on, r.off = newWalker(w, r.eng.CostParams()), newWalker(w, r.eng.CostParams())
	for _, wk := range []*walker{r.on, r.off} {
		for _, o := range in.Warm {
			if _, _, err := r.staged(ctx, wk, nil, o, false); err != nil {
				r.close()
				return nil, fmt.Errorf("staged warm-up %q: %w", o.SQL, err)
			}
		}
	}
	return r, nil
}

func (r *replay) close() {
	for _, e := range []*service.Engine{r.eng, r.quiet} {
		if e != nil {
			e.Close() // read-side benchmark state: nothing to lose on a failed flush
		}
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
}

// bind parses and binds the query text, then pins each side to the
// table's current MVCC version as the engine does before planning.
func (r *replay) bind(rec *recorder, sql string) (plan.Query, error) {
	s := rec.begin("sqlish.Prepare")
	prepared, err := sqlish.Prepare(sql, r.eng.Catalog(), r.eng.Model())
	rec.end(s)
	if err != nil {
		return plan.Query{}, err
	}
	q := prepared.Query()
	s = rec.begin("service.PinnedTable")
	for _, ref := range []*plan.TableRef{&q.Left, &q.Right} {
		if pt, ok := r.eng.PinnedTable(ref.Name); ok {
			ref.Table, ref.Visible = pt.Table, pt.Visible
		}
	}
	rec.end(s)
	return q, nil
}

// staged runs one query through the layers' public functions in the
// order Engine.Query calls them. It returns the executed result and the
// walk's elapsed time (without sqlish.Prepare when skipPrepare: the
// engine skips it on a plan-cache hit, so the comparison must too).
func (r *replay) staged(ctx context.Context, wk *walker, rec *recorder, o op, skipPrepare bool) (*plan.ExecResult, time.Duration, error) {
	rec.nextRequest()
	start := time.Now()
	root := rec.begin("staged")
	defer rec.end(root)

	q, err := r.bind(rec, o.SQL)
	if err != nil {
		return nil, 0, err
	}
	prepared := time.Now()

	s := rec.begin("plan.Optimize")
	naive, err := plan.NewNaivePlan(q)
	var optimized *plan.EJoin
	if err == nil {
		optimized, err = wk.opt.Optimize(naive)
	}
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}

	res, err := execute(ctx, wk.ex, rec, optimized, o.Limit)
	if err != nil {
		return nil, 0, err
	}
	if o.Rows {
		s = rec.begin("plan.MaterializeResult")
		_, err = plan.MaterializeResult(q, res)
		rec.end(s)
		if err != nil {
			return nil, 0, err
		}
	}
	elapsed := time.Since(start)
	if skipPrepare {
		elapsed -= prepared.Sub(start)
	}
	return res, elapsed, nil
}

// execute is plan.Executor.ExecuteStreaming taken apart at its public
// seams, one span per call.
func execute(ctx context.Context, ex *plan.Executor, rec *recorder, j *plan.EJoin, limit int) (*plan.ExecResult, error) {
	root := rec.begin("plan.ExecuteStreaming")
	defer rec.end(root)

	s := rec.begin("plan.EvalBuild")
	build, err := ex.EvalBuild(ctx, j)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("plan.OpenStream")
	stream, err := ex.OpenStream(ctx, j, build, limit)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	var matches []core.Match
	for {
		s = rec.begin("plan.Stream.Next")
		blk, err := stream.Next(ctx)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		matches = append(matches, blk...)
	}
	s = rec.begin("plan.Stream.Finish")
	res := stream.Finish(ctx, matches)
	rec.end(s)
	return res, nil
}

// mutate applies one mutation op to both engines, spanning the traced
// one's call.
func (r *replay) mutate(ctx context.Context, rec *recorder, o op) error {
	rec.nextRequest()
	for _, e := range []*service.Engine{r.eng, r.quiet} {
		var rc *recorder
		if e == r.eng {
			rc = rec
		}
		var err error
		switch o.Kind {
		case opUpsert:
			s := rc.begin("service.UpsertCSV")
			_, err = e.UpsertCSV(ctx, o.Table, "id", strings.NewReader(rowsCSV(o.Batch)))
			rc.end(s)
		case opDelete:
			s := rc.begin("service.DeleteRows")
			_, err = e.DeleteRows(ctx, o.Table, "id", o.Keys)
			rc.end(s)
		case opSnapshot:
			s := rc.begin("service.Snapshot")
			_, err = e.Snapshot()
			rc.end(s)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", o.Kind, err)
		}
	}
	return nil
}

// replayStats is what the replay measured, per query op.
type replayStats struct {
	ops                   int
	traced, quiet, routed []float64 // Engine.Query (tracing on / off), Router.Query: ns
	frontSelf             []float64 // Engine.Query minus the same request's staged ExecuteStreaming: ns
	stagedOn, stagedOff   []float64 // staged walk with / without the benchmark's spans: ns
	tracedSum, stagedSum  float64   // over the same requests, for the unattributed share
	mallocs, allocBytes   uint64    // over the traced Engine.Query calls
	opStats               map[string]*opTotals
	comparisons           int64
	earlyOut              int64
}

// opTotals sums one exec operator's OpStats over the replay.
type opTotals struct {
	elapsed time.Duration
	rowsOut int64
}

func timeQuery(ctx context.Context, b backend, o op) (*service.QueryResult, float64, error) {
	t0 := time.Now()
	res, err := b.Query(ctx, request(o))
	return res, float64(time.Since(t0).Nanoseconds()), err
}

// run replays up to replayOps ops or until the budget is spent. seq must
// be a fresh sequence for the same seed as the engines' tables.
func (r *replay) run(ctx context.Context, rec *recorder, seq sequence, budget time.Duration) (*replayStats, error) {
	st := &replayStats{opStats: make(map[string]*opTotals)}
	deadline := time.Now().Add(budget)
	var before, after runtime.MemStats
	for st.ops < replayOps && (st.ops < 8 || time.Now().Before(deadline)) {
		o := seq.Next()
		st.ops++
		if o.Kind != opQuery {
			if err := r.mutate(ctx, rec, o); err != nil {
				return nil, err
			}
			continue
		}
		// Alternate which engine goes first so neither always runs on
		// the caches the other just warmed.
		var res *service.QueryResult
		var tracedNS, quietNS float64
		var err error
		first, second := r.eng, r.quiet
		if st.ops%2 == 0 {
			first, second = second, first
		}
		for _, e := range []*service.Engine{first, second} {
			if e == r.eng {
				runtime.ReadMemStats(&before)
				rec.nextRequest()
				s := rec.begin("service.Engine.Query")
				res, tracedNS, err = timeQuery(ctx, e, o)
				rec.end(s)
				runtime.ReadMemStats(&after)
				st.mallocs += after.Mallocs - before.Mallocs
				st.allocBytes += after.TotalAlloc - before.TotalAlloc
			} else {
				_, quietNS, err = timeQuery(ctx, e, o)
			}
			if err != nil {
				return nil, fmt.Errorf("%q: %w", o.SQL, err)
			}
		}
		st.traced = append(st.traced, tracedNS)
		st.quiet = append(st.quiet, quietNS)

		execRes, on, err := r.staged(ctx, r.on, rec, o, res.PlanCacheHit)
		if err != nil {
			return nil, fmt.Errorf("staged %q: %w", o.SQL, err)
		}
		_, off, err := r.staged(ctx, r.off, nil, o, res.PlanCacheHit)
		if err != nil {
			return nil, fmt.Errorf("staged %q: %w", o.SQL, err)
		}
		st.stagedOn = append(st.stagedOn, float64(on.Nanoseconds()))
		st.stagedOff = append(st.stagedOff, float64(off.Nanoseconds()))
		st.tracedSum += tracedNS
		st.frontSelf = append(st.frontSelf, tracedNS-float64(rec.lastNamed("plan.ExecuteStreaming").dur().Nanoseconds()))
		st.stagedSum += float64(on.Nanoseconds())
		st.comparisons += execRes.Stats.Comparisons
		for _, os := range execRes.Ops {
			name := os.Name
			if strings.HasPrefix(name, "probe:") {
				name = "probe"
			}
			t := st.opStats[name]
			if t == nil {
				t = &opTotals{}
				st.opStats[name] = t
			}
			t.elapsed += os.Elapsed
			t.rowsOut += os.RowsOut
			st.earlyOut += os.EarlyOutRows
		}

		if r.router != nil {
			rec.nextRequest()
			s := rec.begin("shard.Router.Query")
			_, ns, err := timeQuery(ctx, r.router, o)
			rec.end(s)
			if err != nil {
				return nil, fmt.Errorf("router %q: %w", o.SQL, err)
			}
			st.routed = append(st.routed, ns)
		}
	}
	return st, nil
}

// metrics turns the replay's measurements into the per-layer metrics it
// owns.
func (st *replayStats) metrics(m measured, spans []span) {
	n := len(st.traced)
	byName := durationsByName(spans)
	p50us := func(name string) (float64, int) {
		ds := byName[name]
		vals := make([]float64, len(ds))
		for i, d := range ds {
			vals[i] = float64(d.Nanoseconds()) / 1e3
		}
		return median(vals), len(vals)
	}
	prepare, np := p50us("sqlish.Prepare")
	m.set("sqlish.prepare_us", prepare, np)
	optimize, no := p50us("plan.Optimize")
	m.set("plan.optimize_us", optimize, no)
	m.set("service.front_self_us", median(st.frontSelf)/1e3, n)

	m.set("obs.trace_overhead_ratio", ratio(median(st.traced), median(st.quiet)), n)
	m.set("trace.overhead_ratio", ratio(median(st.stagedOn), median(st.stagedOff)), n)
	m.set("trace.unattributed_share", 1-ratio(st.stagedSum, st.tracedSum), n)
	m.set("trace.replayed_ops", float64(st.ops), st.ops)
	m.set("proc.allocs_per_query", ratio(float64(st.mallocs), float64(n)), n)
	m.set("proc.alloc_bytes_per_query", ratio(float64(st.allocBytes), float64(n)), n)
	m.set("shard.router_overhead_ratio", ratio(median(st.routed), median(st.traced)), len(st.routed))

	var pipeline time.Duration
	for _, t := range st.opStats {
		pipeline += t.elapsed
	}
	perRow := func(name string) float64 {
		t := st.opStats[name]
		if t == nil {
			return 0
		}
		return ratio(float64(t.elapsed.Nanoseconds()), float64(t.rowsOut))
	}
	m.set("exec.scan_ns_row", perRow("scan"), n)
	m.set("exec.embed_ns_row", perRow("embed"), n)
	if probe := st.opStats["probe"]; probe != nil {
		m.set("exec.probe_ns_pair", ratio(float64(probe.elapsed.Nanoseconds()), float64(st.comparisons)), n)
		m.set("exec.probe_share", ratio(float64(probe.elapsed), float64(pipeline)), n)
	}
	m.set("exec.limit_early_out_rows", ratio(float64(st.earlyOut), float64(n)), n)
}
