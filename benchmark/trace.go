package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary: name, start, end (ns since the
// recorder started), the span that caused it, and the request it belongs
// to. Spans inside the program are a later change.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's root
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the spans-off replay is run.
type recorder struct {
	t0      time.Time
	spans   []span
	stack   []int
	request int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: r.request, Name: name, Start: int64(time.Since(r.t0))})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned (spans close innermost first).
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// lastNamed returns the most recent span with the given name.
func (r *recorder) lastNamed(name string) span {
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].Name == name {
			return r.spans[i]
		}
	}
	return span{}
}

// nextRequest starts a new request: spans opened from now on carry its id.
func (r *recorder) nextRequest() {
	if r != nil {
		r.request++
	}
}

// durationsByName returns every span's duration, grouped by span name.
func durationsByName(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// spanFile is what -trace-out holds.
type spanFile struct {
	Workload string                   `json:"workload"`
	Seed     int64                    `json:"seed"`
	SelfNS   map[string]time.Duration `json:"self_ns_by_name"`
	Spans    []span                   `json:"spans"`
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	b, err := json.Marshal(spanFile{Workload: workload, Seed: seed, SelfNS: selfByName(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
