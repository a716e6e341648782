// Package feedback closes the loop between the planner's static
// estimates and what executed queries actually observed. Its rolling
// state is cheap enough to update on every traced query:
//
//   - per-join-pair output cardinality corrections (observed/estimated
//     ratios folded into EWMAs), which the service applies to a plan's
//     output-rows estimate as RowsFactor. The planner's input counts are
//     exact, so nothing here corrects them;
//   - the q-error of the static and the corrected output estimates, as
//     per-pair means and registry-wide histograms.
//
// The registry is the single synchronization point; estimators inside it
// are plain structs guarded by its mutex.
package feedback

import (
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
// q-errors don't fit obs.Histogram's time buckets.
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

// joinState is one (left, right) pair's cardinality record.
type joinState struct {
	// rowsFactor estimates observed matches / static estimate — the
	// multiplicative correction applied to future estimates.
	rowsFactor Estimator
	// qerrStatic/qerrCorrected track the q-error of the static and the
	// feedback-corrected estimate against observed output.
	qerrStatic, qerrCorrected Estimator
}

// Registry is the engine-wide feedback state.
type Registry struct {
	mu    sync.Mutex
	joins map[string]*joinState

	// QErrHist/QErrStaticHist bucket the corrected and static estimates'
	// q-error.
	QErrHist       *FloatHist
	QErrStaticHist *FloatHist
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		joins:          make(map[string]*joinState),
		QErrHist:       NewFloatHist(1, 1.5, 2, 4, 8, 16, 64),
		QErrStaticHist: NewFloatHist(1, 1.5, 2, 4, 8, 16, 64),
	}
}

// canonical lowercases a table name — the catalog's canonical form, so
// mixed-case query texts and catalog operations share one record.
func canonical(name string) string { return strings.ToLower(name) }

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

// Drop forgets every join pair a table participates in (catalog
// drop/replace).
func (r *Registry) Drop(table string) {
	table = canonical(table)
	r.mu.Lock()
	defer r.mu.Unlock()
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

// JoinDump is one join pair's estimator state in Dump.
type JoinDump struct {
	Samples       int64   `json:"samples"`
	RowsFactor    float64 `json:"rows_factor"`
	QErrStatic    float64 `json:"qerror_static"`
	QErrCorrected float64 `json:"qerror_corrected"`
}

// Dump is the /debug/feedback payload.
type Dump struct {
	Joins map[string]JoinDump `json:"joins,omitempty"`
}

// Dump snapshots the whole registry for operators.
func (r *Registry) Dump() Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d Dump
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
			}
		}
	}
	return d
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
