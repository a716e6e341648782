// Package feedback closes the loop between the planner's static
// estimates and what executed queries actually observed. It holds three
// kinds of rolling state, all cheap enough to update on every traced
// query:
//
//   - per-join-pair output cardinality corrections (observed/estimated
//     ratios folded into EWMAs), which the service applies to a plan's
//     output-rows estimate as RowsFactor. The planner's input counts are
//     exact, so nothing here corrects them;
//   - audited recall@k per table and knob setting, fed by the service's
//     background auditor re-running sampled index probes exactly;
//   - the SLO tuner's bookkeeping: which knob value each table runs at,
//     the highest value known to miss the recall SLO, and hysteresis
//     counters bounding how often the knob may move.
//
// The registry is the single synchronization point; estimators and
// histograms inside it are plain structs guarded by its mutex.
package feedback

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// ewmaAlpha is the steady-state weight of one new observation. Early
// observations use 1/count instead, so the estimator starts as a plain
// running mean and only later becomes exponentially forgetful.
const ewmaAlpha = 0.2

// Estimator is a rolling mean over a stream of observations: a running
// mean for the first 1/ewmaAlpha samples, an EWMA after. Not
// goroutine-safe; the Registry synchronizes access.
type Estimator struct {
	count int64
	mean  float64
}

// Observe folds one value in.
func (e *Estimator) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	e.count++
	alpha := ewmaAlpha
	if inv := 1 / float64(e.count); inv > alpha {
		alpha = inv
	}
	e.mean += alpha * (v - e.mean)
}

// Mean returns the current estimate (0 before any observation).
func (e *Estimator) Mean() float64 { return e.mean }

// Count returns how many observations were folded in.
func (e *Estimator) Count() int64 { return e.count }

// FloatHist is a fixed-bucket histogram over float observations —
// recall ratios and q-errors don't fit obs.Histogram's time buckets.
// The last implicit bucket is +Inf.
type FloatHist struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	sum    float64
	total  uint64
}

// NewFloatHist builds a histogram with the given ascending upper bounds.
func NewFloatHist(bounds ...float64) *FloatHist {
	return &FloatHist{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *FloatHist) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// First bucket whose upper bound covers v (le semantics); past the
	// last bound lands in the implicit +Inf bucket.
	i := sort.Search(len(h.bounds), func(j int) bool { return h.bounds[j] >= v })
	h.counts[i]++
	h.sum += v
	h.total++
}

// Snapshot copies the histogram state: bounds, per-bucket counts (one
// longer than bounds; the extra is +Inf), sum, and total count.
func (h *FloatHist) Snapshot() (bounds []float64, counts []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]uint64(nil), h.counts...), h.sum, h.total
}

// Tuner policy constants: how much audit evidence a move needs, how far
// one move may travel, and the hysteresis band above the SLO before the
// tuner considers cheapening the knob.
const (
	// minAuditSamples is the audited-recall sample floor (at the current
	// knob, since the last move) before the tuner may act.
	minAuditSamples = 2
	// hysteresisMargin is the recall surplus over the SLO required before
	// the tuner tries a cheaper setting, so it never oscillates around
	// the SLO boundary.
	hysteresisMargin = 0.03
)

// tableState is one table's audit/tuner record.
type tableState struct {
	kind     string
	knobName string
	knob     int
	tuned    bool // a tuner move or manifest restore happened
	audits   int64
	// recall holds one estimator per knob value ever audited.
	recall map[int]*Estimator
	// sinceMove counts audits at the current knob since the last move.
	sinceMove int64
	// failedFloor is the highest knob value whose audited recall missed
	// the SLO; the tuner never moves down into it.
	failedFloor int
	moves       int64
	// sampleAcc is the audit sampling accumulator (adds the fraction per
	// index query; a sample fires on each whole-number crossing).
	sampleAcc float64
}

// joinState is one (left, right) pair's cardinality record.
type joinState struct {
	// rowsFactor estimates observed matches / static estimate — the
	// multiplicative correction applied to future estimates.
	rowsFactor Estimator
	// qerrStatic/qerrCorrected track the q-error of the static and the
	// feedback-corrected estimate against observed output.
	qerrStatic, qerrCorrected Estimator
	regret                    int64
}

// Registry is the engine-wide feedback state.
type Registry struct {
	mu     sync.Mutex
	slo    float64
	tables map[string]*tableState
	joins  map[string]*joinState

	audits, moves, regret int64

	// RecallHist buckets audited recall@k; QErrHist/QErrStaticHist bucket
	// the corrected and static estimates' q-error.
	RecallHist     *FloatHist
	QErrHist       *FloatHist
	QErrStaticHist *FloatHist
}

// NewRegistry builds an empty registry targeting the given recall SLO.
func NewRegistry(slo float64) *Registry {
	if slo <= 0 || slo > 1 {
		slo = 0.95
	}
	return &Registry{
		slo:            slo,
		tables:         make(map[string]*tableState),
		joins:          make(map[string]*joinState),
		RecallHist:     NewFloatHist(0.5, 0.8, 0.9, 0.95, 0.99, 1),
		QErrHist:       NewFloatHist(1, 1.5, 2, 4, 8, 16, 64),
		QErrStaticHist: NewFloatHist(1, 1.5, 2, 4, 8, 16, 64),
	}
}

// SLO returns the recall target.
func (r *Registry) SLO() float64 { return r.slo }

// canonical lowercases a table name — the catalog's canonical form, so
// mixed-case query texts and catalog operations share one record.
func canonical(name string) string { return strings.ToLower(name) }

func (r *Registry) table(name string) *tableState {
	name = canonical(name)
	t := r.tables[name]
	if t == nil {
		t = &tableState{recall: make(map[int]*Estimator)}
		r.tables[name] = t
	}
	return t
}

func joinKey(left, right string) string { return canonical(left) + "\x00" + canonical(right) }

// QError is max(est/obs, obs/est) with both sides floored at one row —
// the standard symmetric cardinality-estimation error.
func QError(est, obs int64) float64 {
	e, o := float64(est), float64(obs)
	if e < 1 {
		e = 1
	}
	if o < 1 {
		o = 1
	}
	if e > o {
		return e / o
	}
	return o / e
}

// RecordJoin folds one executed join into the estimators: the static and
// corrected output estimates against the observed match count.
func (r *Registry) RecordJoin(left, right string, staticEst, correctedEst, obs int64) {
	qs, qc := QError(staticEst, obs), QError(correctedEst, obs)
	r.QErrStaticHist.Observe(qs)
	r.QErrHist.Observe(qc)

	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.joins[joinKey(left, right)]
	if j == nil {
		j = &joinState{}
		r.joins[joinKey(left, right)] = j
	}
	o := float64(obs)
	if o < 1 {
		o = 1
	}
	e := float64(staticEst)
	if e < 1 {
		e = 1
	}
	j.rowsFactor.Observe(o / e)
	j.qerrStatic.Observe(qs)
	j.qerrCorrected.Observe(qc)
}

// RecordRegret counts one query where the post-hoc costs (recomputed
// with observed cardinalities) say a different strategy would have won.
func (r *Registry) RecordRegret(left, right string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.regret++
	if j := r.joins[joinKey(left, right)]; j != nil {
		j.regret++
	}
}

// rowsFactorBound caps how far a learned correction may pull an
// estimate: a burst of anomalous queries should bend the estimate, not
// break it.
const rowsFactorBound = 64

// RowsFactor returns the learned observed/estimated output-rows ratio
// for a join of left against right, clamped to [1/64, 64]; a pair never
// seen (or a nil registry) reports the neutral 1.
func (r *Registry) RowsFactor(left, right string) float64 {
	if r == nil {
		return 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := 1.0
	if j := r.joins[joinKey(left, right)]; j != nil && j.rowsFactor.Count() > 0 {
		f = j.rowsFactor.Mean()
	}
	return min(max(f, 1.0/rowsFactorBound), rowsFactorBound)
}

// SetCurrent records a table's index kind and live knob setting (at
// index attach) without marking it tuned.
func (r *Registry) SetCurrent(table, kind, knobName string, knob int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.table(table)
	t.kind, t.knobName = kind, knobName
	if t.knob != knob {
		t.knob = knob
		t.sinceMove = 0
	}
}

// SeedKnob restores a previously tuned knob (manifest recovery): like
// SetCurrent but the value counts as tuned, so index rebuilds re-apply
// it.
func (r *Registry) SeedKnob(table, kind, knobName string, knob int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.table(table)
	t.kind, t.knobName = kind, knobName
	t.knob = knob
	t.tuned = true
	t.sinceMove = 0
}

// TunedKnob reports the knob value to (re-)apply to a freshly built
// index for table, and whether the tuner (or a manifest restore) ever
// set one.
func (r *Registry) TunedKnob(table string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tables[canonical(table)]
	if t == nil || !t.tuned {
		return 0, false
	}
	return t.knob, true
}

// SampleAudit reports whether this index-path query should be audited,
// accumulating fraction per call so sampling is deterministic (every
// 1/fraction-th query) rather than random.
func (r *Registry) SampleAudit(table string, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction > 1 {
		fraction = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.table(table)
	t.sampleAcc += fraction
	if t.sampleAcc >= 1 {
		t.sampleAcc--
		return true
	}
	return false
}

// RecordAudit folds one audited recall@k measurement in.
func (r *Registry) RecordAudit(table, kind string, knob int, recall float64) {
	r.RecallHist.Observe(recall)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.audits++
	t := r.table(table)
	if kind != "" {
		t.kind = kind
	}
	t.audits++
	est := t.recall[knob]
	if est == nil {
		est = &Estimator{}
		t.recall[knob] = est
	}
	est.Observe(recall)
	if knob == t.knob {
		t.sinceMove++
	}
}

// NextKnob is the tuner's decision function: given the audit evidence at
// table's current knob, it proposes the next knob value. It moves up
// (bounded step) when audited recall misses the SLO, moves down (smaller
// step, never at or below the highest known-failing value) when recall
// clears the SLO by the hysteresis margin, and otherwise holds. The
// caller applies the value to the index (which may clamp it) and reports
// back via KnobApplied.
func (r *Registry) NextKnob(table string) (next int, reason string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tables[canonical(table)]
	if t == nil || t.knob <= 0 || t.sinceMove < minAuditSamples {
		return 0, "", false
	}
	est := t.recall[t.knob]
	if est == nil || est.Count() < minAuditSamples {
		return 0, "", false
	}
	rec := est.Mean()
	switch {
	case rec < r.slo:
		if t.knob > t.failedFloor {
			t.failedFloor = t.knob
		}
		up := t.knob + max(1, t.knob/2)
		return up, fmt.Sprintf("recall %.3f < SLO %.3f", rec, r.slo), true
	case rec >= r.slo+hysteresisMargin:
		down := t.knob - max(1, t.knob/4)
		if down >= 1 && down > t.failedFloor {
			return down, fmt.Sprintf("recall %.3f clears SLO %.3f by > %.2f", rec, r.slo, hysteresisMargin), true
		}
	}
	return 0, "", false
}

// KnobApplied records the knob value the index actually runs at after a
// tuner move (post-clamping) and returns whether the value changed.
func (r *Registry) KnobApplied(table string, knob int) (moved bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.table(table)
	moved = knob != t.knob
	t.knob = knob
	t.sinceMove = 0
	t.tuned = true
	if moved {
		t.moves++
		r.moves++
	}
	return moved
}

// Counters returns the registry-wide totals: audits recorded, tuner
// moves applied, and regretted strategy choices.
func (r *Registry) Counters() (audits, moves, regret int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.audits, r.moves, r.regret
}

// Drop forgets all state for a table (catalog drop/replace): its audit
// history plus every join pair it participates in.
func (r *Registry) Drop(table string) {
	table = canonical(table)
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.tables, table)
	for k := range r.joins {
		for i := 0; ; i++ {
			if i == len(k) {
				break
			}
			if k[i] == 0 {
				if k[:i] == table || k[i+1:] == table {
					delete(r.joins, k)
				}
				break
			}
		}
	}
}

// TableDump is one table's estimator state in Dump.
type TableDump struct {
	Kind     string `json:"kind,omitempty"`
	KnobName string `json:"knob_name,omitempty"`
	Knob     int    `json:"knob,omitempty"`
	Tuned    bool   `json:"tuned,omitempty"`
	Audits   int64  `json:"audits"`
	Moves    int64  `json:"tuner_moves"`
	// RecallByKnob maps each audited knob value to its mean recall@k.
	RecallByKnob map[string]float64 `json:"recall_by_knob,omitempty"`
	FailedFloor  int                `json:"failed_floor,omitempty"`
}

// JoinDump is one join pair's estimator state in Dump.
type JoinDump struct {
	Samples       int64   `json:"samples"`
	RowsFactor    float64 `json:"rows_factor"`
	QErrStatic    float64 `json:"qerror_static"`
	QErrCorrected float64 `json:"qerror_corrected"`
	Regret        int64   `json:"regret"`
}

// Dump is the /debug/feedback payload.
type Dump struct {
	RecallSLO  float64              `json:"recall_slo"`
	Audits     int64                `json:"audits"`
	TunerMoves int64                `json:"tuner_moves"`
	Regret     int64                `json:"regret"`
	Tables     map[string]TableDump `json:"tables,omitempty"`
	Joins      map[string]JoinDump  `json:"joins,omitempty"`
}

// Dump snapshots the whole registry for operators.
func (r *Registry) Dump() Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := Dump{RecallSLO: r.slo, Audits: r.audits, TunerMoves: r.moves, Regret: r.regret}
	if len(r.tables) > 0 {
		d.Tables = make(map[string]TableDump, len(r.tables))
		for name, t := range r.tables {
			td := TableDump{
				Kind: t.kind, KnobName: t.knobName, Knob: t.knob, Tuned: t.tuned,
				Audits: t.audits, Moves: t.moves, FailedFloor: t.failedFloor,
			}
			if len(t.recall) > 0 {
				td.RecallByKnob = make(map[string]float64, len(t.recall))
				for knob, est := range t.recall {
					td.RecallByKnob[fmt.Sprint(knob)] = round3(est.Mean())
				}
			}
			d.Tables[name] = td
		}
	}
	if len(r.joins) > 0 {
		d.Joins = make(map[string]JoinDump, len(r.joins))
		for k, j := range r.joins {
			name := k
			for i := 0; i < len(k); i++ {
				if k[i] == 0 {
					name = k[:i] + "⋈" + k[i+1:]
					break
				}
			}
			d.Joins[name] = JoinDump{
				Samples:       j.rowsFactor.Count(),
				RowsFactor:    round3(j.rowsFactor.Mean()),
				QErrStatic:    round3(j.qerrStatic.Mean()),
				QErrCorrected: round3(j.qerrCorrected.Mean()),
				Regret:        j.regret,
			}
		}
	}
	return d
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
