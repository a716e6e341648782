package model

import (
	"fmt"
	"sync/atomic"
	"time"
)

// CountingModel wraps a Model and counts Embed invocations. It is how the
// cost-model claims of Section IV-A are validated empirically: the naive
// E-NLJ makes |R|·|S| model calls, the prefetch formulation |R|+|S|. When
// models are paid per embedding, this count is the monetary cost.
type CountingModel struct {
	Inner Model
	calls atomic.Int64
}

// NewCountingModel wraps inner.
func NewCountingModel(inner Model) *CountingModel {
	return &CountingModel{Inner: inner}
}

// Embed implements Model.
func (c *CountingModel) Embed(input string) ([]float32, error) {
	c.calls.Add(1)
	return c.Inner.Embed(input)
}

// Dim implements Model.
func (c *CountingModel) Dim() int { return c.Inner.Dim() }

// Name implements Model.
func (c *CountingModel) Name() string { return c.Inner.Name() + "+count" }

// Calls returns the number of Embed invocations so far.
func (c *CountingModel) Calls() int64 { return c.calls.Load() }

// Fingerprint forwards the inner model's cache identity: counting does
// not change output vectors, so wrapped and unwrapped models share
// cross-query cache entries.
func (c *CountingModel) Fingerprint() string { return fingerprintOf(c.Inner) }

// Reset zeroes the counter.
func (c *CountingModel) Reset() { c.calls.Store(0) }

// LatencyModel wraps a Model and adds a fixed latency per Embed call,
// simulating an expensive model on the critical path (deep network
// inference, or a remote model service). The M term of the cost model.
type LatencyModel struct {
	Inner Model
	Delay time.Duration
}

// NewLatencyModel wraps inner with a per-call delay.
func NewLatencyModel(inner Model, delay time.Duration) *LatencyModel {
	return &LatencyModel{Inner: inner, Delay: delay}
}

// Embed implements Model.
func (l *LatencyModel) Embed(input string) ([]float32, error) {
	if l.Delay > 0 {
		// Busy-wait for sub-millisecond fidelity: time.Sleep granularity is
		// too coarse to model a ~µs lookup cost, and a busy loop also
		// occupies the core the way real model compute would.
		deadline := time.Now().Add(l.Delay)
		for time.Now().Before(deadline) {
		}
	}
	return l.Inner.Embed(input)
}

// Dim implements Model.
func (l *LatencyModel) Dim() int { return l.Inner.Dim() }

// Name implements Model.
func (l *LatencyModel) Name() string {
	return fmt.Sprintf("%s+%v", l.Inner.Name(), l.Delay)
}

// Fingerprint forwards the inner model's cache identity (latency does not
// change output vectors).
func (l *LatencyModel) Fingerprint() string { return fingerprintOf(l.Inner) }

// fingerprintOf is the cache identity of m: its own Fingerprint when
// implemented, otherwise the Name/Dim fallback (matching
// embstore.Fingerprint, which consumes these).
func fingerprintOf(m Model) string {
	if f, ok := m.(interface{ Fingerprint() string }); ok {
		return f.Fingerprint()
	}
	return fmt.Sprintf("%s/%d", m.Name(), m.Dim())
}

// FailingModel returns err for inputs matching the predicate and delegates
// otherwise — failure injection for operator error-path tests.
type FailingModel struct {
	Inner Model
	Match func(input string) bool
	Err   error
}

// Embed implements Model.
func (f *FailingModel) Embed(input string) ([]float32, error) {
	if f.Match != nil && f.Match(input) {
		return nil, f.Err
	}
	return f.Inner.Embed(input)
}

// Dim implements Model.
func (f *FailingModel) Dim() int { return f.Inner.Dim() }

// Name implements Model.
func (f *FailingModel) Name() string { return f.Inner.Name() + "+failing" }
