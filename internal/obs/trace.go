// Package obs is the engine's observability substrate: per-query traces
// with named spans, the EXPLAIN ANALYZE node tree (estimated vs observed
// cardinality, per-node wall times), lock-free log-bucketed latency
// histograms with a Prometheus text-exposition writer, and a slow-query
// log. No external dependencies; every recording call is nil-safe so
// untraced paths (CLI one-shots, benchmarks with tracing disabled) pay
// only a context lookup.
//
// The trace span vocabulary (the names recorded by the service layer and
// executor) is:
//
//	resolve      parse + bind, or plan-cache hit validation
//	plan         naive plan construction + optimization
//	admit        admission wait (execution slot + byte budget)
//	execute      the whole executor run (embed spans + join nest inside)
//	embed        one input's E_µ evaluation (attrs: hits/misses/merged/model_calls)
//	join:tensor  the comparison phase of the tensor scan
//	materialize  joined-output table construction
//	wal.append   fsynced WAL append of a mutation batch
//	apply        MVCC apply + publish of a mutation batch
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span is one completed, named interval within a trace. Start is the
// offset from the trace's start, so spans order and nest without clock
// arithmetic on the reader's side.
type Span struct {
	Name  string           `json:"name"`
	Start time.Duration    `json:"start_ns"`
	Dur   time.Duration    `json:"dur_ns"`
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// Trace is one request's recording surface, carried via context.Context
// through the whole query path. All methods are safe on a nil receiver
// (no trace attached) and for concurrent use.
type Trace struct {
	id    string
	label string
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace. id is the request id (empty generates one);
// label is the human query text shown in the slow-query log.
func NewTrace(id, label string) *Trace {
	if id == "" {
		id = NewRequestID()
	}
	// Most query traces record well under 12 spans; preallocating keeps
	// the steady state to the one Trace allocation.
	return &Trace{id: id, label: label, start: time.Now(), spans: make([]Span, 0, 12)}
}

// ID is the trace's request id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Since is the offset from the trace's start (0 on nil) — the anchor for
// synthetic spans recorded after the fact via AddSpan.
func (t *Trace) Since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// ActiveSpan is an open span handle; End records it on the trace.
type ActiveSpan struct {
	t     *Trace
	name  string
	start time.Duration
	attrs map[string]int64
}

// StartSpan opens a span. Returns nil (safe to use) on a nil trace.
func (t *Trace) StartSpan(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, name: name, start: time.Since(t.start)}
}

// Attr attaches one integer attribute, returning s for chaining.
func (s *ActiveSpan) Attr(key string, v int64) *ActiveSpan {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]int64, 4)
	}
	s.attrs[key] = v
	return s
}

// BoolAttr renders a bool as an attribute value (1 or 0).
func BoolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// End closes the span and records it.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.t.AddSpan(s.name, s.start, time.Since(s.t.start)-s.start, s.attrs)
}

// AddSpan records a completed span directly — for intervals measured
// elsewhere (e.g. a streamed phase's summed time, after the stream drains).
func (t *Trace) AddSpan(name string, start, dur time.Duration, attrs map[string]int64) {
	if t == nil {
		return
	}
	if start < 0 {
		start = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, Dur: dur, Attrs: attrs})
	t.mu.Unlock()
}

// TraceSnapshot is a completed trace: the slow-query-log entry and the
// explain-mode response payload.
type TraceSnapshot struct {
	ID       string        `json:"id"`
	Query    string        `json:"query"`
	Start    time.Time     `json:"start"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Strategy string        `json:"strategy,omitempty"`
	Error    string        `json:"error,omitempty"`
	Spans    []Span        `json:"spans"`
	Plan     *NodeStats    `json:"plan,omitempty"`
}

// Finish seals the trace into a snapshot. The trace remains usable (it is
// not consumed), but callers treat Finish as the end of recording.
func (t *Trace) Finish(strategy string, err error, plan *NodeStats) *TraceSnapshot {
	if t == nil {
		return nil
	}
	snap := &TraceSnapshot{
		ID:       t.id,
		Query:    t.label,
		Start:    t.start,
		Elapsed:  time.Since(t.start),
		Strategy: strategy,
		Plan:     plan,
	}
	if err != nil {
		snap.Error = err.Error()
	}
	t.mu.Lock()
	snap.Spans = make([]Span, len(t.spans))
	copy(snap.Spans, t.spans)
	t.mu.Unlock()
	return snap
}

// NewRequestID draws a 16-hex-char random request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("obs: reading request-id randomness: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
