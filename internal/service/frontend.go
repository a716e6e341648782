package service

// The query lifecycle, written once. Every request an Engine or the shard
// router serves runs the same steps in the same order:
//
//	deadline  clamp the request's timeout to MaxTimeout, else DefaultTimeout
//	resolve   plan cache → sqlish.Prepare, or the structured-join binder
//	plan      the Backend pins its tables and plans (and weighs the plan)
//	admit     one execution slot, then the plan's weight of the byte budget
//	run       the Backend executes
//	finish    counters, latency histograms, trace and slow-query log
//
// A Backend supplies only the two steps that differ: the Engine plans and
// runs one pipeline over its own pinned tables; the shard router plans one
// pipeline per probe-shard × build-shard pair and merges their streams.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/sqlish"
	"ejoin/internal/vec"
)

// Backend is the part of the query lifecycle a Frontend delegates.
type Backend interface {
	// PlanQuery pins q's tables to their current versions and plans the
	// query. It returns the run step, the bytes admission should charge
	// for it (the Frontend clamps them to the budget), and the plan's
	// estimated output rows for the trace; request-caused failures carry
	// MarkBadRequest. It is a lifecycle step, not an entry point: requests
	// go through Query.
	PlanQuery(q plan.Query) (run QueryRun, weight, estRows int64, err error)
}

// QueryRun is a planned query's run step, called once admission is
// granted. The lifecycle's own result fields (PlanCacheHit,
// AdmittedBytes, Elapsed, RequestID, PlanText, Trace) are the Frontend's
// to fill in.
type QueryRun interface {
	Run(ctx context.Context, req QueryRequest) (*QueryResult, error)
}

// Resolved is a Config with every default applied, plus the planner and
// executor built from it. NewEngine and the shard router both start from
// Resolve, so the two cannot disagree on a default.
type Resolved struct {
	// Config has Model, Store, and every zero-valued limit filled in. When
	// CalibrateCost was set, CostParams holds the measurement and
	// CalibrateCost is cleared: resolving Config again measures nothing.
	Config Config
	// Calibrated reports that Config.CostParams came from cost.Calibrate.
	Calibrated bool
	Exec       *plan.Executor
	Opt        *plan.Optimizer
}

// Resolve applies cfg's defaults (see Config) and builds the executor and
// optimizer every query plans and runs with.
func Resolve(cfg Config) (Resolved, error) {
	if cfg.Dim <= 0 {
		cfg.Dim = 100
	}
	if cfg.Model == nil {
		hm, err := model.NewHashEmbedder(cfg.Dim)
		if err != nil {
			return Resolved{}, fmt.Errorf("service: building default model: %w", err)
		}
		cfg.Model = hm
	}
	if cfg.Store == nil {
		if cfg.StoreBytes <= 0 {
			cfg.StoreBytes = 256 << 20
		}
		cfg.Store = embstore.New(embstore.Config{MaxBytes: cfg.StoreBytes})
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.Threads <= 0 {
		cfg.Threads = max(runtime.GOMAXPROCS(0)/cfg.MaxConcurrent, 1)
	}
	if cfg.AdmissionBytes <= 0 {
		cfg.AdmissionBytes = 1 << 30
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = 256
	}
	if cfg.CostParams.Validate() != nil {
		cfg.CostParams = cost.DefaultParams()
	}
	calibrated := false
	if cfg.CalibrateCost {
		// Calibration embeds through the model directly, not the store, so
		// cache statistics and executor model-call counts stay untouched.
		if p, err := cost.Calibrate(cfg.Model, cfg.Model.Dim()); err == nil {
			cfg.CostParams = p
			calibrated = true
		}
		cfg.CalibrateCost = false
	}
	return Resolved{
		Config:     cfg,
		Calibrated: calibrated,
		Exec: &plan.Executor{
			Options:   core.Options{Kernel: vec.DefaultKernel(), Threads: cfg.Threads},
			Store:     cfg.Store,
			BlockRows: cfg.ExecBlockRows,
		},
		Opt: &plan.Optimizer{
			Params: cfg.CostParams,
			Store:  cfg.Store,
		},
	}, nil
}

// Frontend runs the query lifecycle for one Backend over one catalog. It
// owns the prepared-plan cache, the admission controller, the lifecycle
// counters and latency histograms, and the slow-query log.
type Frontend struct {
	cfg     Config
	backend Backend
	catalog *sqlish.Catalog
	plans   *planCache
	slots   chan struct{}
	bytes   *byteSemaphore

	counters queryCounters
	obs      queryObs
	start    time.Time
}

// queryCounters is the lifecycle's accounting. Scalar counts are atomics;
// the aggregated join stats and per-label counts are multi-field updates
// under mu.
type queryCounters struct {
	queries        atomic.Int64
	errors         atomic.Int64
	rejected       atomic.Int64
	admissionWaits atomic.Int64
	inFlight       atomic.Int64

	mu         sync.Mutex
	join       core.Stats
	strategies map[string]int64
}

// queryObs is the lifecycle's recording state: the overall latency
// histogram, its split by the planner's strategy choice, the slow-query
// log, and how many requests carried a trace.
type queryObs struct {
	latency    obs.Histogram
	byStrategy obs.HistogramVec
	slow       *obs.SlowLog
	traced     atomic.Int64
}

// NewFrontend builds the lifecycle for backend b over catalog, sized by
// r's limits.
func NewFrontend(r Resolved, catalog *sqlish.Catalog, b Backend) *Frontend {
	cfg := r.Config
	f := &Frontend{
		cfg:     cfg,
		backend: b,
		catalog: catalog,
		plans:   newPlanCache(cfg.PlanCacheSize),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		bytes:   newByteSemaphore(cfg.AdmissionBytes),
		start:   time.Now(),
	}
	f.obs.slow = obs.NewSlowLog(0, 0, cfg.SlowQueryThreshold) // the default 128 traces
	return f
}

// Query serves one request through the lifecycle. It is safe for any
// number of concurrent callers.
func (f *Frontend) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	start := time.Now()
	tr, ctx := f.startTrace(ctx, queryLabel(req), req.Explain)
	if req.Explain {
		// Only explain executions build the per-node analysis tree; plain
		// traced queries stay span-only, keeping per-query overhead small.
		ctx = obs.WithAnalyze(ctx)
	}
	res, err := f.query(ctx, req, start)
	if err != nil {
		f.counters.errors.Add(1)
		f.finishTrace(tr, "", err, nil)
		return nil, err
	}
	f.record(res)
	res.RequestID = tr.ID()
	if snap := f.finishTrace(tr, res.Strategy, nil, res.Plan); snap != nil && req.Explain {
		res.Trace = snap
		res.PlanText = obs.RenderAnalyze(res.Plan)
	}
	return res, nil
}

// queryLabel is the human form of a request shown in the slow-query log.
func queryLabel(req QueryRequest) string {
	if req.SQL != "" {
		return req.SQL
	}
	if j := req.Join; j != nil {
		return fmt.Sprintf("join %s.%s ~ %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
	}
	return ""
}

func (f *Frontend) query(ctx context.Context, req QueryRequest, start time.Time) (*QueryResult, error) {
	// MaxTimeout caps client-requested overrides only; with no request
	// timeout the default applies (0 = no deadline, as documented).
	timeout := req.Timeout
	if timeout > 0 && f.cfg.MaxTimeout > 0 && timeout > f.cfg.MaxTimeout {
		timeout = f.cfg.MaxTimeout
	}
	if timeout <= 0 {
		timeout = f.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("resolve")
	q, cacheHit, err := f.resolve(req)
	if err != nil {
		sp.End()
		return nil, badRequest(err)
	}
	sp.Attr("cache_hit", obs.BoolAttr(cacheHit)).End()

	sp = tr.StartSpan("plan")
	run, weight, estRows, err := f.backend.PlanQuery(q)
	if err != nil {
		sp.End()
		return nil, err
	}
	if weight > f.cfg.AdmissionBytes {
		// An over-budget query is not refused outright: clamped to the full
		// budget it runs alone, which is the useful degraded mode for one
		// giant join amid small ones.
		weight = f.cfg.AdmissionBytes
	}
	sp.Attr("est_rows", estRows).Attr("weight_bytes", weight).End()

	sp = tr.StartSpan("admit")
	waited, err := f.admit(ctx, weight)
	if err != nil {
		sp.End()
		f.counters.rejected.Add(1)
		return nil, err
	}
	sp.Attr("waited", obs.BoolAttr(waited)).End()
	defer f.release(weight)
	if waited {
		f.counters.admissionWaits.Add(1)
	}
	f.counters.inFlight.Add(1)
	defer f.counters.inFlight.Add(-1)

	res, err := run.Run(ctx, req)
	if err != nil {
		return nil, err
	}
	res.PlanCacheHit = cacheHit
	res.AdmittedBytes = weight
	res.Elapsed = time.Since(start)
	return res, nil
}

// record folds one served query into the counters and histograms. The
// query is counted before its latency sample is observed: Engine.Stats
// reads the histogram count first, so a snapshot never shows a sample
// whose query it does not count.
func (f *Frontend) record(res *QueryResult) {
	c := &f.counters
	c.mu.Lock()
	c.join.Add(res.Stats)
	if c.strategies == nil {
		c.strategies = make(map[string]int64)
	}
	c.strategies[res.Strategy]++
	c.mu.Unlock()
	c.queries.Add(1)
	f.obs.latency.Observe(res.Elapsed)
	f.obs.byStrategy.With(res.Strategy).Observe(res.Elapsed)
}

// admit acquires one execution slot and then weight bytes of the
// admission budget, in that order (slots bound CPU oversubscription,
// bytes bound memory pressure), reporting whether either had to wait.
// A granted admission is undone by release(weight).
func (f *Frontend) admit(ctx context.Context, weight int64) (waited bool, err error) {
	select {
	case f.slots <- struct{}{}:
	default:
		waited = true
		select {
		case f.slots <- struct{}{}:
		case <-ctx.Done():
			return true, fmt.Errorf("service: admission wait aborted: %w", ctx.Err())
		}
	}
	bytesWaited, err := f.bytes.Acquire(ctx, weight)
	if err != nil {
		<-f.slots
		return waited || bytesWaited, err
	}
	return waited || bytesWaited, nil
}

func (f *Frontend) release(weight int64) {
	f.bytes.Release(weight)
	<-f.slots
}

// resolve turns the request into a plan.Query bound against the catalog,
// through the prepared-plan cache for SQL text.
func (f *Frontend) resolve(req QueryRequest) (plan.Query, bool, error) {
	switch {
	case req.SQL != "" && req.Join != nil:
		return plan.Query{}, false, fmt.Errorf("service: request has both sql and join spec")
	case req.SQL != "":
		// Trim the cache key so padding variants of one query share an
		// entry, and never cache oversized texts: the cache is bounded by
		// entry count, so huge client-supplied keys could otherwise pin
		// unbounded memory.
		text := strings.TrimSpace(req.SQL)
		cacheable := len(text) <= maxCachedQueryLen
		gen := f.catalog.Generation()
		if cacheable {
			if p, ok := f.plans.get(text, gen); ok {
				return p.Query(), true, nil
			}
		}
		p, err := sqlish.Prepare(text, f.catalog, f.cfg.Model)
		if err != nil {
			return plan.Query{}, false, err
		}
		if cacheable {
			f.plans.put(text, p)
		}
		return p.Query(), false, nil
	case req.Join != nil:
		q, err := f.bindJoinRequest(req.Join)
		return q, false, err
	default:
		return plan.Query{}, false, fmt.Errorf("service: empty request: need sql or join spec")
	}
}

// maxCachedQueryLen bounds the plan cache's key/text size: real query
// texts are short, and the cache's memory is otherwise entry-counted.
const maxCachedQueryLen = 1 << 14

// bindJoinRequest resolves a structured join spec against the catalog.
func (f *Frontend) bindJoinRequest(jr *JoinRequest) (plan.Query, error) {
	var q plan.Query
	left, err := f.bindSide(jr.LeftTable, jr.LeftColumn)
	if err != nil {
		return q, err
	}
	right, err := f.bindSide(jr.RightTable, jr.RightColumn)
	if err != nil {
		return q, err
	}
	q.Left, q.Right = left, right
	q.Model = f.cfg.Model

	switch strings.ToLower(jr.Kind) {
	case "", "threshold", "sim":
		var thr float32
		if jr.Threshold != nil {
			thr = float32(*jr.Threshold)
		}
		q.Join = plan.JoinSpec{Kind: plan.ThresholdJoin, Threshold: thr}
	case "topk", "top-k":
		if jr.K <= 0 {
			return q, fmt.Errorf("service: topk join requires k > 0")
		}
		q.Join = plan.JoinSpec{Kind: plan.TopKJoin, K: jr.K, Threshold: -2}
		if jr.Threshold != nil {
			q.Join.Threshold = float32(*jr.Threshold)
		}
	default:
		return q, fmt.Errorf("service: unknown join kind %q (want threshold or topk)", jr.Kind)
	}
	return q, nil
}

// bindSide resolves one table+column pair under the join-column rule
// SQL statements bind by (sqlish.BindJoinColumn).
func (f *Frontend) bindSide(table, column string) (plan.TableRef, error) {
	t, ok := f.catalog.Get(table)
	if !ok {
		return plan.TableRef{}, fmt.Errorf("service: unknown table %q", table)
	}
	ref := plan.TableRef{Name: table, Table: t}
	if err := sqlish.BindJoinColumn(&ref, column); err != nil {
		return ref, fmt.Errorf("service: %w", err)
	}
	return ref, nil
}

// PurgeStalePlans drops cached plans bound under an older catalog
// generation. Call it after registering or dropping a table: lazy
// get-time invalidation only fires when the same text is queried again,
// which would otherwise pin replaced tables in memory indefinitely.
func (f *Frontend) PurgeStalePlans() { f.plans.purgeStale(f.catalog.Generation()) }

// startTrace begins a per-request trace unless tracing is disabled. An
// explicit explain request forces a trace regardless — the EXPLAIN
// ANALYZE tree rides on it. The request id comes from the context (the
// HTTP layer's X-Request-ID) or is generated.
func (f *Frontend) startTrace(ctx context.Context, label string, force bool) (*obs.Trace, context.Context) {
	if f.cfg.DisableTracing && !force {
		return nil, ctx
	}
	tr := obs.NewTrace(obs.RequestIDFrom(ctx), label)
	f.obs.traced.Add(1)
	return tr, obs.NewContext(ctx, tr)
}

// finishTrace seals tr into the slow-query log and returns the snapshot.
// Fast successful requests the log would discard anyway (under threshold,
// not among the worst-N) skip snapshotting entirely — Finish copies every
// span, and avoiding that copy is what keeps always-on tracing cheap when
// an operator sets a slow-query threshold. Failures and explain requests
// (which carry a plan) always snapshot.
func (f *Frontend) finishTrace(tr *obs.Trace, strategy string, err error, plan *obs.NodeStats) *obs.TraceSnapshot {
	if tr == nil {
		return nil
	}
	if err == nil && plan == nil && !f.obs.slow.Keeps(tr.Since()) {
		return nil
	}
	snap := tr.Finish(strategy, err, plan)
	f.obs.slow.Record(snap)
	return snap
}

// SlowQueries snapshots the slow-query log (the /debug/queries payload).
func (f *Frontend) SlowQueries() obs.SlowLogDump { return f.obs.slow.Dump() }

// Latency is the end-to-end latency histogram of served queries.
func (f *Frontend) Latency() *obs.Histogram { return &f.obs.latency }

// QueryStats is the query lifecycle's accounting: the keys an Engine's
// ServerStats and the shard router's stats share. Both embed it, so its
// keys sit flat in either JSON object.
type QueryStats struct {
	// Uptime is time since the engine or router was built.
	Uptime time.Duration `json:"uptime_ns"`
	// Queries is the number of successfully served queries.
	Queries int64 `json:"queries"`
	// Errors counts failed queries (parse, bind, execution, deadline).
	Errors int64 `json:"errors"`
	// Rejected counts queries whose context ended while waiting for
	// admission (a subset of Errors).
	Rejected int64 `json:"rejected"`
	// InFlight is the number of queries currently executing.
	InFlight int64 `json:"in_flight"`
	// AdmissionWaits counts queries that had to queue for a slot or for
	// byte budget before executing.
	AdmissionWaits int64 `json:"admission_waits"`
	// AdmittedBytes is the intermediate-footprint weight currently held.
	AdmittedBytes int64 `json:"admitted_bytes"`
	// AdmissionWaiting is the number of queries queued right now.
	AdmissionWaiting int `json:"admission_waiting"`
	// PlanCacheHits/Misses/Invalidations/Entries describe the prepared
	// query cache (invalidations are generation mismatches after catalog
	// changes).
	PlanCacheHits          int64 `json:"plan_cache_hits"`
	PlanCacheMisses        int64 `json:"plan_cache_misses"`
	PlanCacheInvalidations int64 `json:"plan_cache_invalidations"`
	PlanCacheEntries       int   `json:"plan_cache_entries"`
	// Tables is the current catalog size.
	Tables int `json:"tables"`
	// Join is the cumulative executor work across all served queries
	// (PeakIntermediateBytes is the high-water mark, not a sum).
	Join core.Stats `json:"join"`
	// Strategies counts executions per physical strategy. Omitted until
	// the first query so the schema is stable: absent or populated, never
	// an empty object. encoding/json renders map keys sorted, so the
	// serialized form is deterministic.
	Strategies map[string]int64 `json:"strategies,omitempty"`
}

// QueryStats snapshots the lifecycle's counters.
func (f *Frontend) QueryStats() QueryStats {
	c := &f.counters
	hits, misses, invalidations, entries := f.plans.snapshot()
	st := QueryStats{
		Uptime:                 time.Since(f.start),
		Queries:                c.queries.Load(),
		Errors:                 c.errors.Load(),
		Rejected:               c.rejected.Load(),
		InFlight:               c.inFlight.Load(),
		AdmissionWaits:         c.admissionWaits.Load(),
		AdmittedBytes:          f.bytes.InUse(),
		AdmissionWaiting:       f.bytes.Waiting(),
		PlanCacheHits:          hits,
		PlanCacheMisses:        misses,
		PlanCacheInvalidations: invalidations,
		PlanCacheEntries:       entries,
		Tables:                 f.catalog.Len(),
	}
	c.mu.Lock()
	st.Join = c.join
	st.Strategies = copyCounts(c.strategies)
	c.mu.Unlock()
	return st
}

// copyCounts copies a label→count map, nil when empty.
func copyCounts(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (f *Frontend) obsStats() ObsStats {
	entries, worst, recorded := f.obs.slow.Counts()
	return ObsStats{
		TracedQueries:        f.obs.traced.Load(),
		SlowLogEntries:       entries,
		SlowLogWorst:         worst,
		SlowLogRecorded:      recorded,
		SlowQueryThresholdNS: f.cfg.SlowQueryThreshold.Nanoseconds(),
		LatencySamples:       f.obs.latency.Count(),
	}
}

// planCache is a bounded LRU of prepared queries keyed by query text.
// Entries are validated against the catalog generation on every hit, so
// registering or dropping a table lazily invalidates stale bindings.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*planElem
	order   []string // LRU order, front = least recently used

	hits, misses, invalidations int64
}

type planElem struct {
	p *sqlish.Prepared
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: make(map[string]*planElem)}
}

// get returns the cached prepared query when present and bound under the
// current catalog generation.
func (c *planCache) get(text string, gen uint64) (*sqlish.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[text]
	if !ok {
		c.misses++
		return nil, false
	}
	if el.p.Generation() != gen {
		delete(c.entries, text)
		c.removeOrder(text)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.touch(text)
	c.hits++
	return el.p, true
}

// put caches a prepared query, evicting the least recently used entry
// past capacity.
func (c *planCache) put(text string, p *sqlish.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[text]; ok {
		c.entries[text] = &planElem{p: p}
		c.touch(text)
		return
	}
	c.entries[text] = &planElem{p: p}
	c.order = append(c.order, text)
	for len(c.entries) > c.max && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
	}
}

func (c *planCache) touch(text string) {
	c.removeOrder(text)
	c.order = append(c.order, text)
}

func (c *planCache) removeOrder(text string) {
	for i, t := range c.order {
		if t == text {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// purgeStale removes every entry not bound under gen, releasing the
// table pointers its plans hold.
func (c *planCache) purgeStale(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for text, el := range c.entries {
		if el.p.Generation() != gen {
			delete(c.entries, text)
			c.removeOrder(text)
			c.invalidations++
		}
	}
}

func (c *planCache) snapshot() (hits, misses, invalidations int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations, len(c.entries)
}
