package shard

// Incremental merge of per-probe-shard match streams. Every kernel emits
// matches sorted ascending (Left, Right), probe blocks arrive in ascending
// row order, Right ids are global (the merged build's), and each probe
// shard's local→global rowmap is strictly increasing — so after mapping
// Left to global ids every stream is globally ascending by (Left, Right).
// Probe shards partition the probe rows, so each stream's per-row result
// (threshold matches or top-k) is already final, and both join kinds merge
// with one k-way pass over the streams. The merger holds at most one block
// per cursor: producers send over unbuffered channels and stall until the
// merger consumes.

import (
	"sync/atomic"
	"time"

	"ejoin/internal/core"
)

// streamMsg is one producer→merger handoff: a non-empty block of matches
// already mapped to global row ids, or a terminal error.
type streamMsg struct {
	blk []core.Match
	err error
}

// streamCursor is the merger's bounded view of one probe shard's stream:
// the current block plus at most one more in the producer's hand — never
// the whole stream.
type streamCursor struct {
	ch     chan streamMsg
	blk    []core.Match
	pos    int
	done   bool
	waitNS *atomic.Int64
}

// peek returns the cursor's next match without consuming it. Blocks on
// the producer when the current block is drained; time spent blocked is
// the merge wait the stats surface as scatter latency.
func (c *streamCursor) peek() (core.Match, bool, error) {
	for !c.done && c.pos >= len(c.blk) {
		t0 := time.Now()
		msg, ok := <-c.ch
		c.waitNS.Add(time.Since(t0).Nanoseconds())
		if !ok {
			c.done = true
			break
		}
		if msg.err != nil {
			c.done = true
			return core.Match{}, false, msg.err
		}
		c.blk, c.pos = msg.blk, 0
	}
	if c.pos >= len(c.blk) {
		return core.Match{}, false, nil
	}
	return c.blk[c.pos], true, nil
}

func (c *streamCursor) pop() { c.pos++ }

// matchLess is the output order contract: ascending (Left, Right).
func matchLess(a, b core.Match) bool {
	if a.Left != b.Left {
		return a.Left < b.Left
	}
	return a.Right < b.Right
}

// mergeThreshold k-way merges ascending cursors into one ascending
// stream. limit > 0 stops after limit matches with truncated set,
// mirroring exec.Limit's semantics (reached = truncated).
func mergeThreshold(cursors []*streamCursor, limit int) ([]core.Match, bool, error) {
	var out []core.Match
	for {
		var (
			best    *streamCursor
			bestM   core.Match
			haveAny bool
		)
		for _, c := range cursors {
			m, ok, err := c.peek()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			if !haveAny || matchLess(m, bestM) {
				best, bestM, haveAny = c, m, true
			}
		}
		if !haveAny {
			return out, false, nil
		}
		best.pop()
		out = append(out, bestM)
		if limit > 0 && len(out) >= limit {
			return out, true, nil
		}
	}
}
