package service

// The feedback loop's service arm: per-query cardinality recording, the
// background recall auditor, and the SLO tuner that moves index knobs.
//
// Every traced query folds its estimated-vs-observed output cardinality
// into the feedback registry (PlanQuery scales the next plan's
// output-rows estimate by the learned factor; the planner's input counts
// are exact and nothing corrects them) and scores the planner's strategy
// choice against a post-hoc recomputation with the exact input counts
// and a warm store (the regret counter). Index-path queries are
// additionally sampled for an accuracy audit: the probe's top-k is
// re-derived exactly by brute force over the same pinned MVCC snapshot,
// off the request path and behind the engine's own admission control,
// and the observed recall@k drives the tuner toward the cheapest knob
// setting meeting Config.RecallSLO.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/feedback"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/vindex"
)

// auditQueueDepth bounds pending audits; excess samples are dropped (and
// counted), never queued unboundedly or run on the request path.
const auditQueueDepth = 64

// auditJob is one sampled index probe to re-run exactly. Every reference
// is to the query's pinned MVCC snapshot, so the audit compares against
// exactly what the probe saw regardless of concurrent mutations.
type auditJob struct {
	table    string // right (indexed) table, canonical name
	kind     string // index kind label (ivf, hnsw)
	knobName string
	knob     int // knob value the probe ran at
	k        int

	// The audited probe: one left row's query vector against the right
	// side's visible rows.
	leftTable *relational.Table
	leftText  string
	leftVec   string
	leftRow   int

	rightTable *relational.Table
	rightCol   string
	visible    relational.Selection

	// got is the index path's answer (right-side global row ids).
	got []int
}

// auditor runs sampled audits on one background goroutine.
type auditor struct {
	jobs chan auditJob
	stop chan struct{}
	done chan struct{}
	ctx  context.Context
	cncl context.CancelFunc

	once sync.Once
	wg   sync.WaitGroup

	dropped atomic.Int64
}

func newAuditor() *auditor {
	ctx, cancel := context.WithCancel(context.Background())
	return &auditor{
		jobs: make(chan auditJob, auditQueueDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		ctx:  ctx,
		cncl: cancel,
	}
}

// enqueue hands a job to the background loop without ever blocking the
// request path: a full queue drops the sample.
func (a *auditor) enqueue(job auditJob) bool {
	a.wg.Add(1)
	select {
	case a.jobs <- job:
		return true
	default:
		a.wg.Done()
		a.dropped.Add(1)
		return false
	}
}

// auditLoop is the background worker; one per engine, stopped by Close.
func (e *Engine) auditLoop() {
	a := e.aud
	defer close(a.done)
	for {
		select {
		case <-a.stop:
			// Balance the WaitGroup for jobs that will never run.
			for {
				select {
				case <-a.jobs:
					a.wg.Done()
				default:
					return
				}
			}
		case job := <-a.jobs:
			e.runAudit(a.ctx, job)
			a.wg.Done()
		}
	}
}

// stopAuditor shuts the background loop down and waits for it. Idempotent.
func (e *Engine) stopAuditor() {
	e.aud.once.Do(func() {
		e.aud.cncl()
		close(e.aud.stop)
		<-e.aud.done
	})
}

// WaitForAudits blocks until every enqueued audit has been processed (or
// dropped) — test and shutdown hook, like WaitForMaintenance.
func (e *Engine) WaitForAudits() { e.aud.wg.Wait() }

// indexKindFor maps a tunable index's knob to its kind label.
func indexKindFor(knobName string) string {
	switch knobName {
	case "nprobe":
		return "ivf"
	case "ef":
		return "hnsw"
	}
	return "index"
}

// recordFeedback folds one executed query into the feedback registry:
// output cardinality (static and corrected estimates against observed
// matches) and the post-hoc strategy regret.
func (e *Engine) recordFeedback(q *plan.Query, optimized *plan.EJoin, res *plan.ExecResult) {
	baseL, baseR := q.Left.Table.NumRows(), q.Right.Table.NumRows()
	if baseL == 0 || baseR == 0 {
		return
	}
	e.feedback.RecordJoin(q.Left.Name, q.Right.Name,
		optimized.StaticRows, optimized.EstRows, int64(len(res.Matches)))

	// Regret: re-run access path selection with the exact input counts
	// this query filtered to and a warm cache, which post-execution is the
	// truth; a different winner means the plan left time on the table.
	k := 0
	if optimized.Spec.Kind == plan.TopKJoin {
		k = optimized.Spec.K
	}
	hasIdx := q.Right.Index != nil
	selL := float64(len(res.LeftRows)) / float64(baseL)
	selR := float64(len(res.RightRows)) / float64(baseR)
	choice := e.cfg.CostParams.ChooseJoinStrategyWarm(baseL, baseR, selL, selR, k, hasIdx, 1, 1)
	want := choice.Strategy
	if want == cost.StrategyIndex && !hasIdx {
		want = cost.StrategyTensor
	}
	if want != optimized.Strategy {
		e.feedback.RecordRegret(q.Left.Name, q.Right.Name)
	}
}

// maybeAudit samples one index-path query for an exact re-run. Cheap on
// the request path: a knob read, the deterministic sampling counter, and
// (when sampled) one pass over the matches to collect the first left
// row's answer.
func (e *Engine) maybeAudit(q *plan.Query, optimized *plan.EJoin, res *plan.ExecResult) {
	if e.cfg.AuditFraction <= 0 || optimized.Strategy != cost.StrategyIndex {
		return
	}
	// Only clean top-k probes audit: a residual threshold filter trims the
	// index's answer after the fact, which would misread as lost recall.
	if optimized.Spec.Kind != plan.TopKJoin || optimized.Spec.Threshold > -1 {
		return
	}
	tun, ok := q.Right.Index.(vindex.TunableIndex)
	if !ok || q.Right.VectorColumn == "" || len(res.Matches) == 0 {
		return
	}
	if !e.feedback.SampleAudit(q.Right.Name, e.cfg.AuditFraction) {
		return
	}
	knobName, knob := tun.Knob()
	leftRow := res.Matches[0].Left
	got := make([]int, 0, optimized.Spec.K)
	for _, m := range res.Matches {
		if m.Left == leftRow {
			got = append(got, m.Right)
		}
	}
	e.aud.enqueue(auditJob{
		table:      q.Right.Name,
		kind:       indexKindFor(knobName),
		knobName:   knobName,
		knob:       knob,
		k:          optimized.Spec.K,
		leftTable:  q.Left.Table,
		leftText:   q.Left.TextColumn,
		leftVec:    q.Left.VectorColumn,
		leftRow:    leftRow,
		rightTable: q.Right.Table,
		rightCol:   q.Right.VectorColumn,
		visible:    q.Right.Visible,
		got:        got,
	})
}

// runAudit re-derives one probe's exact answer and folds the observed
// recall@k in, then gives the tuner a chance to move the knob. Runs on
// the auditor goroutine, admission-controlled like a query.
func (e *Engine) runAudit(ctx context.Context, job auditJob) {
	tr := obs.NewTrace("", fmt.Sprintf("audit %s (%s=%d, k=%d)", job.table, job.knobName, job.knob, job.k))
	// Take an execution slot (zero byte weight: the brute-force scan
	// materializes nothing) so audits never add to peak query concurrency.
	sp := tr.StartSpan("admit")
	_, err := e.front.admit(ctx, 0)
	sp.End()
	if err != nil {
		e.aud.dropped.Add(1)
		return
	}
	defer e.front.release(0)

	sp = tr.StartSpan("audit.brute")
	qv, err := e.auditQueryVector(ctx, job)
	if err == nil {
		var exact []int
		exact, err = exactTopK(job.rightTable, job.rightCol, job.visible, qv, job.k)
		if err == nil {
			recall := overlapRatio(job.got, exact)
			sp.Attr("rows", int64(scannedRows(job.rightTable, job.visible))).
				Attr("recall_permille", int64(math.Round(recall*1000))).End()
			e.feedback.RecordAudit(job.table, job.kind, job.knob, recall)
			e.front.obs.slow.Record(tr.Finish("audit", "", nil, nil))
			e.maybeTune(job.table)
			return
		}
	}
	sp.End()
	e.aud.dropped.Add(1)
	e.front.obs.slow.Record(tr.Finish("audit", "", err, nil))
}

// auditQueryVector recovers the audited left row's embedding: read from
// its vector column, or embedded through the shared store (warm — the
// query that was sampled just computed it).
func (e *Engine) auditQueryVector(ctx context.Context, job auditJob) ([]float32, error) {
	if job.leftVec != "" {
		vc, err := job.leftTable.Vectors(job.leftVec)
		if err != nil {
			return nil, err
		}
		if job.leftRow < 0 || job.leftRow >= job.leftTable.NumRows() {
			return nil, fmt.Errorf("service: audit row %d out of range", job.leftRow)
		}
		return vc.Data[job.leftRow*vc.Dim : (job.leftRow+1)*vc.Dim], nil
	}
	texts, err := job.leftTable.Strings(job.leftText)
	if err != nil {
		return nil, err
	}
	if job.leftRow < 0 || job.leftRow >= len(texts) {
		return nil, fmt.Errorf("service: audit row %d out of range", job.leftRow)
	}
	m, _, err := e.store.EmbedAll(ctx, e.model, texts[job.leftRow:job.leftRow+1], embstore.BatchOptions{Threads: 1})
	if err != nil {
		return nil, err
	}
	return m.Row(0), nil
}

// scannedRows is the audit's brute-force row count (for the trace).
func scannedRows(t *relational.Table, visible relational.Selection) int {
	if visible != nil {
		return len(visible)
	}
	return t.NumRows()
}

// exactTopK is the audit's ground truth: the true top-k right rows by
// cosine similarity, brute-forced over the visible rows.
func exactTopK(t *relational.Table, col string, visible relational.Selection, q []float32, k int) ([]int, error) {
	vc, err := t.Vectors(col)
	if err != nil {
		return nil, err
	}
	if len(q) != vc.Dim {
		return nil, fmt.Errorf("service: audit query dim %d, column dim %d", len(q), vc.Dim)
	}
	qn := vec.Clone(q)
	vec.Normalize(qn)
	type scored struct {
		id  int
		sim float32
	}
	best := make([]scored, 0, k)
	consider := func(id int) {
		row := vc.Data[id*vc.Dim : (id+1)*vc.Dim]
		// The indexes rank by cosine (they normalize at build); divide the
		// raw dot by the row norm so the ground truth ranks the same way.
		n2 := vec.Dot(vec.KernelSIMD, row, row)
		if n2 <= 0 {
			return
		}
		s := vec.Dot(vec.KernelSIMD, qn, row) / float32(math.Sqrt(float64(n2)))
		if len(best) == k && s <= best[k-1].sim {
			return
		}
		i := sort.Search(len(best), func(j int) bool { return best[j].sim < s })
		if len(best) < k {
			best = append(best, scored{})
		}
		copy(best[i+1:], best[i:])
		best[i] = scored{id: id, sim: s}
	}
	if visible != nil {
		for _, id := range visible {
			consider(id)
		}
	} else {
		for id := 0; id < t.NumRows(); id++ {
			consider(id)
		}
	}
	out := make([]int, len(best))
	for i, s := range best {
		out[i] = s.id
	}
	return out, nil
}

// overlapRatio is recall: |got ∩ exact| / |exact|.
func overlapRatio(got, exact []int) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int]struct{}, len(exact))
	for _, id := range exact {
		in[id] = struct{}{}
	}
	hit := 0
	for _, id := range got {
		if _, ok := in[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// maybeTune asks the registry for a knob move and applies it to the live
// index. Applied moves persist into the manifest (durable engines) and
// record a trace in the slow-query log, so operators can see every
// decision and why.
func (e *Engine) maybeTune(table string) {
	if e.cfg.DisableAutoTune {
		return
	}
	next, reason, ok := e.feedback.NextKnob(table)
	if !ok {
		return
	}
	ts := e.mut.get(table)
	if ts == nil || ts.idx == nil {
		return
	}
	tun, ok := ts.idx.Index().(vindex.TunableIndex)
	if !ok {
		return
	}
	name, old := tun.Knob()
	tr := obs.NewTrace("", "")
	applied := tun.SetKnob(next)
	if moved := e.feedback.KnobApplied(table, applied); !moved {
		return
	}
	_ = e.persistTableKnob(table, applied)
	sp := tr.StartSpan("tune")
	sp.Attr("from", int64(old)).Attr("to", int64(applied)).End()
	snap := tr.Finish("tune", "", nil, nil)
	snap.Query = fmt.Sprintf("tune %s: %s %d -> %d (%s)", table, name, old, applied, reason)
	e.front.obs.slow.Record(snap)
}

// IndexKnob reports the named table's index tuning knob (nprobe or ef)
// and its current value.
func (e *Engine) IndexKnob(table string) (name string, value int, err error) {
	ts := e.mut.get(table)
	if ts == nil || ts.idx == nil {
		return "", 0, fmt.Errorf("service: table %q has no maintained index", table)
	}
	tun, ok := ts.idx.Index().(vindex.TunableIndex)
	if !ok {
		return "", 0, fmt.Errorf("service: table %q index is not tunable", table)
	}
	name, value = tun.Knob()
	return name, value, nil
}

// SetIndexKnob forces the named table's index knob to value (the index
// may clamp it), returning the applied value. The auto-tuner continues
// from the forced setting — this is the operator override the audit loop
// then validates against the SLO.
func (e *Engine) SetIndexKnob(table string, value int) (int, error) {
	ts := e.mut.get(table)
	if ts == nil || ts.idx == nil {
		return 0, fmt.Errorf("service: table %q has no maintained index", table)
	}
	tun, ok := ts.idx.Index().(vindex.TunableIndex)
	if !ok {
		return 0, fmt.Errorf("service: table %q index is not tunable", table)
	}
	applied := tun.SetKnob(value)
	name, _ := tun.Knob()
	e.feedback.SetCurrent(table, indexKindFor(name), name, applied)
	return applied, nil
}

// FeedbackDump is the /debug/feedback payload: the whole registry.
func (e *Engine) FeedbackDump() feedback.Dump { return e.feedback.Dump() }

// FeedbackStats is the feedback loop's slice of ServerStats.
type FeedbackStats struct {
	// RecallSLO is the tuner's audited-recall target.
	RecallSLO float64 `json:"recall_slo"`
	// AuditFraction is the sampled fraction of index-path queries.
	AuditFraction float64 `json:"audit_fraction"`
	// Audits counts completed recall audits; AuditsDropped the samples
	// shed under queue pressure or audit failure.
	Audits        int64 `json:"audits"`
	AuditsDropped int64 `json:"audits_dropped"`
	// TunerMoves counts applied knob changes; Regret counts queries whose
	// post-hoc costs favored a different strategy.
	TunerMoves int64 `json:"tuner_moves"`
	Regret     int64 `json:"regret"`
}

func (e *Engine) feedbackStats() FeedbackStats {
	audits, moves, regret := e.feedback.Counters()
	return FeedbackStats{
		RecallSLO:     e.feedback.SLO(),
		AuditFraction: e.cfg.AuditFraction,
		Audits:        audits,
		AuditsDropped: e.aud.dropped.Load(),
		TunerMoves:    moves,
		Regret:        regret,
	}
}

// CostStats surfaces the planner's effective cost-model coefficients
// (normalized to Access=1) and whether they came from machine
// calibration (Config.CalibrateCost) or defaults/config.
type CostStats struct {
	Calibrated bool    `json:"calibrated"`
	Access     float64 `json:"access"`
	Compare    float64 `json:"compare"`
	Model      float64 `json:"model"`
}

func (e *Engine) costStats() CostStats {
	return CostStats{
		Calibrated: e.calibrated,
		Access:     e.cfg.CostParams.Access,
		Compare:    e.cfg.CostParams.Compare,
		Model:      e.cfg.CostParams.Model,
	}
}

// CostParams is the planner's effective parameter set (after validation
// and optional calibration) — logged at server boot.
func (e *Engine) CostParams() cost.Params { return e.cfg.CostParams }

// Calibrated reports whether CostParams came from cost.Calibrate.
func (e *Engine) Calibrated() bool { return e.calibrated }
