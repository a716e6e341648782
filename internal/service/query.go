package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/sqlish"
)

// effectivePrecision is what a plan's precision executes as: Auto runs
// exact, and non-quantizable shapes are exact regardless.
func effectivePrecision(pl *plan.EJoin) quant.Precision {
	if pl.Precision == quant.PrecisionAuto || !pl.Quantizable() {
		return quant.PrecisionF32
	}
	return pl.Precision
}

// QueryRequest is one query: sqlish text or a structured join spec.
type QueryRequest struct {
	// SQL is the sqlish query text (SELECT * FROM a JOIN b ON SIM(...)).
	SQL string
	// Join is the structured alternative to SQL; exactly one must be set.
	Join *JoinRequest
	// Timeout overrides the engine's default deadline (0 = use default).
	Timeout time.Duration
	// Limit truncates the match list (0 = unlimited).
	Limit int
	// Materialize additionally builds the joined output table.
	Materialize bool
	// Explain requests EXPLAIN ANALYZE output: the result carries the
	// per-node plan tree (estimated vs observed cardinality, per-node wall
	// times) and the full trace. Forces a trace even under DisableTracing.
	Explain bool
}

// JoinRequest is the structured query shape: join two registered tables
// on the similarity of two columns.
type JoinRequest struct {
	LeftTable   string `json:"left_table"`
	LeftColumn  string `json:"left_column"`
	RightTable  string `json:"right_table"`
	RightColumn string `json:"right_column"`
	Kind        string `json:"kind"` // "threshold" (default) or "topk"
	// Threshold is a pointer so an explicit 0 is distinguishable from
	// absent (cosine similarity spans [-1, 1], making 0 a natural cutoff).
	// Threshold joins treat absent as 0; topk joins as no residual filter.
	Threshold *float64 `json:"threshold"`
	K         int      `json:"k"`
}

// QueryResult is the outcome of one served query.
type QueryResult struct {
	// Strategy is the physical strategy the planner chose.
	Strategy string
	// Precision is the scan precision the join executed at ("f32" for
	// exact plans; quantized threshold scans report "f16"/"int8").
	Precision string
	// Matches are the qualifying pairs (global row ids + similarity).
	Matches []core.Match
	// Stats is the executor's account of the work performed.
	Stats core.Stats
	// PlanCacheHit reports whether parse+bind was skipped.
	PlanCacheHit bool
	// AdmittedBytes is the intermediate-footprint weight this query held.
	AdmittedBytes int64
	// Elapsed is end-to-end service time including admission wait.
	Elapsed time.Duration
	// Table is the materialized join output (only when requested).
	Table *relational.Table
	// RequestID is the trace/request id (propagated X-Request-ID or
	// generated); empty when tracing was disabled.
	RequestID string
	// Plan is the EXPLAIN ANALYZE tree (explain requests only).
	Plan *obs.NodeStats
	// PlanText is Plan rendered as an indented tree (explain requests only).
	PlanText string
	// Trace is the completed trace with every span (explain requests only).
	Trace *obs.TraceSnapshot
}

// maxCachedQueryLen bounds the plan cache's key/text size: real query
// texts are short, and the cache's memory is otherwise entry-counted.
const maxCachedQueryLen = 1 << 14

// badRequestError marks failures caused by the request itself (parse,
// bind, spec validation) as opposed to server-side execution failures,
// preserving the underlying message and chain.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return badRequestError{err: err}
}

// IsBadRequest reports whether err was caused by the request (the HTTP
// layer maps these to 400; everything else is a server-side failure).
func IsBadRequest(err error) bool {
	var b badRequestError
	return errors.As(err, &b)
}

// MarkBadRequest wraps err as request-caused so IsBadRequest reports it.
// The shard router uses this to classify its own parse/bind failures the
// same way the engine does.
func MarkBadRequest(err error) error { return badRequest(err) }

// Query plans, admits, and executes one request. It is safe for any
// number of concurrent callers.
func (e *Engine) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	start := time.Now()
	tr, ctx := e.startTrace(ctx, queryLabel(req), req.Explain)
	if req.Explain {
		// Only explain executions build the per-node analysis tree; plain
		// traced queries stay span-only, keeping per-query overhead small.
		ctx = obs.WithAnalyze(ctx)
	}
	res, err := e.query(ctx, req, start)
	if err != nil {
		e.counters.errors.Add(1)
		e.finishTrace(tr, "", "", err, nil)
		return nil, err
	}
	e.counters.queries.Add(1)
	e.observeQuery(res)
	res.RequestID = tr.ID()
	if snap := e.finishTrace(tr, res.Strategy, res.Precision, nil, res.Plan); snap != nil && req.Explain {
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

func (e *Engine) query(ctx context.Context, req QueryRequest, start time.Time) (*QueryResult, error) {
	// MaxTimeout caps client-requested overrides only; with no request
	// timeout the engine default applies (0 = no deadline, as documented).
	timeout := req.Timeout
	if timeout > 0 && e.cfg.MaxTimeout > 0 && timeout > e.cfg.MaxTimeout {
		timeout = e.cfg.MaxTimeout
	}
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("resolve")
	q, cacheHit, err := e.resolve(req)
	if err != nil {
		sp.End()
		return nil, badRequest(err)
	}
	sp.Attr("cache_hit", boolAttr(cacheHit)).End()
	// Pin each side to its current MVCC version before planning: table,
	// visibility set, and (when maintained) index are read once here, so
	// the query sees one generation snapshot end to end regardless of
	// concurrent upserts/deletes.
	e.pinVersions(&q)
	// Plan validation rejects malformed conditions (threshold outside
	// [-1,1], k<=0) — the request's fault, unlike execution failures.
	sp = tr.StartSpan("plan")
	naive, err := plan.NewNaivePlan(q)
	if err != nil {
		sp.End()
		return nil, badRequest(err)
	}
	optimized, err := e.opt.Optimize(naive)
	if err != nil {
		sp.End()
		return nil, err
	}
	// Per-table precision knobs override the planner's cost-based choice:
	// the coarser of the two sides' declarations wins. Only threshold
	// scans quantize — top-k ranks by exact similarity and index probes
	// rerank internally — so the knob is a no-op elsewhere.
	if optimized.Quantizable() {
		if p := e.joinPrecision(q.Left.Name, q.Right.Name); p != quant.PrecisionAuto {
			optimized.Precision = p
			// The knob is a forced choice: clear any cost-based residue so
			// the executor's slack-based demotion guard never overrides an
			// explicit operator opt-in.
			optimized.PrecisionSlack = 0
			optimized.PrecisionEstimates = nil
		}
	}

	// A plan is charged its build side plus one probe block — what the
	// pipeline holds — not both whole inputs: charging for the probe side
	// would serialize queries that can safely run concurrently.
	weight := plan.EstimateFootprint(optimized, e.footprintDim(q), e.exec.BlockRows)
	if weight > e.cfg.AdmissionBytes {
		// An over-budget query is not refused outright: clamped to the full
		// budget it runs alone, which is the useful degraded mode for one
		// giant join amid small ones.
		weight = e.cfg.AdmissionBytes
	}
	sp.Attr("est_rows", optimized.EstRows).Attr("weight_bytes", weight).End()

	sp = tr.StartSpan("admit")
	release, waited, err := e.admit(ctx, weight)
	if err != nil {
		sp.End()
		e.counters.rejected.Add(1)
		return nil, err
	}
	sp.Attr("waited", boolAttr(waited)).End()
	defer release()
	if waited {
		e.counters.admissionWaits.Add(1)
	}

	e.counters.inFlight.Add(1)
	defer e.counters.inFlight.Add(-1)

	sp = tr.StartSpan("execute")
	res, err := e.exec.ExecuteStreaming(ctx, optimized, req.Limit)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Attr("matches", int64(len(res.Matches))).End()

	e.recordExecution(optimized.Strategy.String(), effectivePrecision(optimized), res.Stats)
	e.recordExecShape(res)
	// Feedback rides the traced path only, like the rest of per-query
	// observability: untraced deployments opt out of its (small) cost too.
	// A LIMIT that bites (res.Truncated) censors observed cardinality — the
	// match count measures the limit, not the join's selectivity — and may
	// have cut a probe row's result list mid-row, which an audit would
	// misread as lost recall.
	if tr != nil && !res.Truncated {
		e.recordFeedback(&q, optimized, res)
		e.maybeAudit(&q, optimized, res)
	}

	out := &QueryResult{
		Strategy:      optimized.Strategy.String(),
		Precision:     effectivePrecision(optimized).String(),
		Matches:       res.Matches,
		Stats:         res.Stats,
		PlanCacheHit:  cacheHit,
		AdmittedBytes: weight,
		Plan:          res.Analysis,
	}
	if req.Materialize {
		sp = tr.StartSpan("materialize")
		tbl, err := plan.MaterializeResult(q, res)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("service: materializing result: %w", err)
		}
		sp.Attr("rows", int64(tbl.NumRows())).End()
		out.Table = tbl
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// boolAttr renders a bool as a span attribute value.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// footprintDim is the embedding dimensionality the admission estimate
// should charge for: precomputed vector columns carry their own (often
// larger) dimensionality, so weighing by the model's dim alone would
// undercount them and overcommit the byte budget.
func (e *Engine) footprintDim(q plan.Query) int {
	dim := e.model.Dim()
	for _, ref := range []plan.TableRef{q.Left, q.Right} {
		if ref.VectorColumn == "" || ref.Table == nil {
			continue
		}
		if vc, err := ref.Table.Vectors(ref.VectorColumn); err == nil && vc.Dim > dim {
			dim = vc.Dim
		}
	}
	return dim
}

// admit acquires one execution slot and the byte-weighted admission
// budget, in that order (slots bound CPU oversubscription, bytes bound
// memory pressure). The returned release undoes both.
func (e *Engine) admit(ctx context.Context, weight int64) (release func(), waited bool, err error) {
	select {
	case e.slots <- struct{}{}:
	default:
		waited = true
		select {
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, true, fmt.Errorf("service: admission wait aborted: %w", ctx.Err())
		}
	}
	bytesWaited, err := e.bytes.Acquire(ctx, weight)
	if err != nil {
		<-e.slots
		return nil, waited || bytesWaited, err
	}
	return func() {
		e.bytes.Release(weight)
		<-e.slots
	}, waited || bytesWaited, nil
}

// resolve turns the request into a bound plan.Query, through the prepared
// plan cache for SQL text.
func (e *Engine) resolve(req QueryRequest) (plan.Query, bool, error) {
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
		gen := e.catalog.Generation()
		if cacheable {
			if p, ok := e.plans.get(text, gen); ok {
				return p.Query(), true, nil
			}
		}
		p, err := sqlish.Prepare(text, e.catalog, e.model)
		if err != nil {
			return plan.Query{}, false, err
		}
		if cacheable {
			e.plans.put(text, p)
		}
		return p.Query(), false, nil
	case req.Join != nil:
		q, err := e.bindJoinRequest(req.Join)
		return q, false, err
	default:
		return plan.Query{}, false, fmt.Errorf("service: empty request: need sql or join spec")
	}
}

// bindJoinRequest resolves a structured join spec against the catalog.
func (e *Engine) bindJoinRequest(jr *JoinRequest) (plan.Query, error) {
	var q plan.Query
	left, err := e.bindSide(jr.LeftTable, jr.LeftColumn)
	if err != nil {
		return q, err
	}
	right, err := e.bindSide(jr.RightTable, jr.RightColumn)
	if err != nil {
		return q, err
	}
	q.Left, q.Right = left, right
	q.Model = e.model

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

// bindSide resolves one table+column pair, routing the column to its
// text or vector role by declared type.
func (e *Engine) bindSide(table, column string) (plan.TableRef, error) {
	var ref plan.TableRef
	t, ok := e.catalog.Get(table)
	if !ok {
		return ref, fmt.Errorf("service: unknown table %q", table)
	}
	idx := t.Schema().IndexOf(column)
	if idx < 0 {
		return ref, fmt.Errorf("service: table %q has no column %q", table, column)
	}
	ref = plan.TableRef{Name: table, Table: t}
	switch t.Schema()[idx].Type {
	case relational.String:
		ref.TextColumn = column
	case relational.Vector:
		ref.VectorColumn = column
	default:
		return ref, fmt.Errorf("service: join column %s.%s must be TEXT or VECTOR", table, column)
	}
	return ref, nil
}
