package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// EffectivePrecision is what a plan's precision executes as: Auto runs
// exact, and non-quantizable shapes are exact regardless.
func EffectivePrecision(pl *plan.EJoin) quant.Precision {
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
// The shard router uses this to classify its own plan-validation and
// mutation-request failures the same way the engine does.
func MarkBadRequest(err error) error { return badRequest(err) }

// Query plans, admits, and executes one request through the engine's
// query lifecycle (see Frontend). It is safe for any number of concurrent
// callers.
func (e *Engine) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	return e.front.Query(ctx, req)
}

// PlanQuery is the engine's plan step of the query lifecycle (see
// Backend): pin both sides, optimize, apply the per-table precision knob,
// and weigh the plan for admission.
func (e *Engine) PlanQuery(q plan.Query) (QueryRun, int64, int64, error) {
	// Pin each side to its current MVCC version before planning: table,
	// visibility set, and (when maintained) index are read once here, so
	// the query sees one generation snapshot end to end regardless of
	// concurrent upserts/deletes.
	e.pinVersions(&q)
	// Plan validation rejects malformed conditions (threshold outside
	// [-1,1], k<=0) — the request's fault, unlike execution failures.
	naive, err := plan.NewNaivePlan(q)
	if err != nil {
		return nil, 0, 0, badRequest(err)
	}
	optimized, err := e.opt.Optimize(naive)
	if err != nil {
		return nil, 0, 0, err
	}
	ApplyPrecisionKnob(optimized, e.JoinPrecision(q.Left.Name, q.Right.Name))
	// A plan is charged its build side plus one probe block — what the
	// pipeline holds — not both whole inputs: charging for the probe side
	// would serialize queries that can safely run concurrently.
	weight := plan.EstimateFootprint(optimized, FootprintDim(e.model, q.Left, q.Right), e.exec.BlockRows)
	return &engineRun{e: e, q: q, j: optimized}, weight, optimized.EstRows, nil
}

// engineRun is the engine's run step: one pipeline over the pinned query.
type engineRun struct {
	e *Engine
	q plan.Query
	j *plan.EJoin
}

func (r *engineRun) Run(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	e, optimized := r.e, r.j
	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("execute")
	res, err := e.exec.ExecuteStreaming(ctx, optimized, req.Limit)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Attr("matches", int64(len(res.Matches))).End()

	e.recordExecShape(res)
	// Feedback rides the traced path only, like the rest of per-query
	// observability: untraced deployments opt out of its (small) cost too.
	// A LIMIT that bites (res.Truncated) censors observed cardinality — the
	// match count measures the limit, not the join's selectivity — and may
	// have cut a probe row's result list mid-row, which an audit would
	// misread as lost recall.
	if tr != nil && !res.Truncated {
		e.recordFeedback(&r.q, optimized, res)
		e.maybeAudit(&r.q, optimized, res)
	}

	out := &QueryResult{
		Strategy:  optimized.Strategy.String(),
		Precision: EffectivePrecision(optimized).String(),
		Matches:   res.Matches,
		Stats:     res.Stats,
		Plan:      res.Analysis,
	}
	if req.Materialize {
		sp = tr.StartSpan("materialize")
		tbl, err := plan.MaterializeResult(r.q, res)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("service: materializing result: %w", err)
		}
		sp.Attr("rows", int64(tbl.NumRows())).End()
		out.Table = tbl
	}
	return out, nil
}

// FootprintDim is the embedding dimensionality admission charges a plan
// over refs for: the model's, widened by any precomputed vector column's
// own (often larger) dimensionality — weighing by the model's dim alone
// would undercount such columns and overcommit the byte budget.
func FootprintDim(m model.Model, refs ...plan.TableRef) int {
	dim := m.Dim()
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
