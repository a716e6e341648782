package main

import (
	"encoding/json"
	"sync"
	"time"
)

// sampleEvery is the oracle's sampling stride: every 50th op's reply is
// kept and checked after the timed window, so checking costs the clients
// no CPU while the server is being measured.
const sampleEvery = 50

// dispatcher hands the shared operation sequence to the workers, one op
// at a time and in order, until the deadline. It also bounds how far
// apart two in-flight ops can be (see mutateWindow).
type dispatcher struct {
	mu       sync.Mutex
	cond     *sync.Cond
	seq      sequence
	next     int
	inflight []int // per worker: index of the op it is running, -1 if idle
	deadline time.Time
}

func newDispatcher(seq sequence, workers int, deadline time.Time) *dispatcher {
	d := &dispatcher{seq: seq, inflight: make([]int, workers), deadline: deadline}
	d.cond = sync.NewCond(&d.mu)
	for i := range d.inflight {
		d.inflight[i] = -1
	}
	return d
}

// oldest is the lowest in-flight op index, or -1.
func (d *dispatcher) oldest() int {
	min := -1
	for _, i := range d.inflight {
		if i >= 0 && (min < 0 || i < min) {
			min = i
		}
	}
	return min
}

// pull returns the next op, or false once the deadline has passed. It
// waits while the next op would be mutateWindow or more positions ahead
// of an op still running.
func (d *dispatcher) pull(worker int) (int, op, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inflight[worker] = -1
	d.cond.Broadcast()
	for {
		if !time.Now().Before(d.deadline) {
			return 0, op{}, false
		}
		if old := d.oldest(); old < 0 || d.next-old < mutateWindow {
			break
		}
		d.cond.Wait()
	}
	i := d.next
	d.next++
	d.inflight[worker] = i
	return i, d.seq.Next(), true
}

// finish marks the worker idle after its last op.
func (d *dispatcher) finish(worker int) {
	d.mu.Lock()
	d.inflight[worker] = -1
	d.cond.Broadcast()
	d.mu.Unlock()
}

// sample is one reply kept for the oracle.
type sample struct {
	op   op
	body []byte
}

// loadResult is what one timed window measured from the client side.
type loadResult struct {
	attempted, failed int
	wall              time.Duration
	queryMs           []float64 // round-trip per successful query
	mutateMs          []float64 // ack latency per successful upsert/delete
	snapshotMs        []float64
	respBytes         int64 // successful query replies
	samples           []sample
	firstErr          string
	// detail mode only:
	overheadMs []float64 // round-trip minus server-reported elapsed_ms
	strategies map[string]int
}

// runLoad drives the server with serverProcs closed-loop clients for the
// given duration: each client sends its next op only when the previous
// one has been answered, because callers of an analytical join wait for
// the reply. detail additionally decodes every query reply for the
// server-side elapsed time and strategy (traced pass only: it costs the
// clients CPU).
func runLoad(s *server, seq sequence, dur time.Duration, detail bool) *loadResult {
	d := newDispatcher(seq, serverProcs, time.Now().Add(dur))
	results := make([]*loadResult, serverProcs)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serverProcs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer d.finish(w)
			res := &loadResult{strategies: make(map[string]int)}
			results[w] = res
			for {
				idx, o, ok := d.pull(w)
				if !ok {
					return
				}
				t0 := time.Now()
				status, body, err := s.send(o)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				res.attempted++
				if _, err := expect2xx(status, body, err); err != nil {
					res.failed++
					if res.firstErr == "" {
						res.firstErr = string(o.Kind) + ": " + err.Error()
					}
					continue
				}
				switch o.Kind {
				case opQuery:
					res.queryMs = append(res.queryMs, ms)
					res.respBytes += int64(len(body))
					if idx%sampleEvery == 0 {
						res.samples = append(res.samples, sample{op: o, body: body})
					}
					if detail {
						var r struct {
							Strategy  string  `json:"strategy"`
							ElapsedMs float64 `json:"elapsed_ms"`
						}
						if json.Unmarshal(body, &r) == nil {
							res.overheadMs = append(res.overheadMs, ms-r.ElapsedMs)
							res.strategies[r.Strategy]++
						}
					}
				case opUpsert, opDelete:
					res.mutateMs = append(res.mutateMs, ms)
				case opSnapshot:
					res.snapshotMs = append(res.snapshotMs, ms)
				}
			}
		}(w)
	}
	wg.Wait()
	total := &loadResult{wall: time.Since(start), strategies: make(map[string]int)}
	for _, r := range results {
		total.attempted += r.attempted
		total.failed += r.failed
		total.queryMs = append(total.queryMs, r.queryMs...)
		total.mutateMs = append(total.mutateMs, r.mutateMs...)
		total.snapshotMs = append(total.snapshotMs, r.snapshotMs...)
		total.overheadMs = append(total.overheadMs, r.overheadMs...)
		total.respBytes += r.respBytes
		total.samples = append(total.samples, r.samples...)
		for k, v := range r.strategies {
			total.strategies[k] += v
		}
		if total.firstErr == "" {
			total.firstErr = r.firstErr
		}
	}
	return total
}
