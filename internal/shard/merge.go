package shard

// Incremental merge of per-shard match streams. Every kernel emits
// matches sorted ascending (Left, Right) in local row offsets, probe
// blocks arrive in ascending row order, and each shard's local→global
// rowmap is strictly increasing — so after mapping to global ids every
// pair stream is globally ascending by (Left, Right). Threshold results
// merge with one k-way pass over all probe×build cursors; top-k results
// regroup per probe row, re-select the global k best from the union of
// per-pair local top-ks (a superset of the global top-k by the usual
// scatter-gather argument), and emit rows in ascending global id order.
// The merger holds at most one block per cursor: producers send over
// unbuffered channels and stall until the merger consumes.

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"ejoin/internal/core"
)

// pairMsg is one producer→merger handoff: a non-empty block of matches
// already mapped to global row ids, or a terminal error.
type pairMsg struct {
	blk []core.Match
	err error
}

// pairCursor is the merger's bounded view of one (probe shard, build
// shard) stream: the current block plus at most one more in the
// producer's hand — never the whole stream.
type pairCursor struct {
	probe, build int
	ch           chan pairMsg
	blk          []core.Match
	pos          int
	done         bool
	waitNS       *atomic.Int64
}

// peek returns the cursor's next match without consuming it. Blocks on
// the producer when the current block is drained; time spent blocked is
// the merge wait the stats surface as scatter latency.
func (c *pairCursor) peek() (core.Match, bool, error) {
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

func (c *pairCursor) pop() { c.pos++ }

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
func mergeThreshold(cursors []*pairCursor, limit int) ([]core.Match, bool, error) {
	var out []core.Match
	for {
		var (
			best    *pairCursor
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

// rowGroup is one probe row's candidate matches across all build shards.
type rowGroup struct {
	lgid  int
	cands []core.Match
}

// nextRow gathers the lowest pending probe row's candidates from one
// probe shard's cursors. A probe row's matches never span blocks within
// a cursor (each input block yields one output batch), so draining every
// cursor whose head carries the row is complete.
func nextRow(cursors []*pairCursor) (rowGroup, bool, error) {
	lgid, have := 0, false
	for _, c := range cursors {
		m, ok, err := c.peek()
		if err != nil {
			return rowGroup{}, false, err
		}
		if ok && (!have || m.Left < lgid) {
			lgid, have = m.Left, true
		}
	}
	if !have {
		return rowGroup{}, false, nil
	}
	g := rowGroup{lgid: lgid}
	for _, c := range cursors {
		for {
			m, ok, err := c.peek()
			if err != nil {
				return rowGroup{}, false, err
			}
			if !ok || m.Left != lgid {
				break
			}
			g.cands = append(g.cands, m)
			c.pop()
		}
	}
	return g, true, nil
}

// selectTopK re-selects one row's global top-k from the union of its
// per-pair local top-ks, under the kernels' exact tie order: similarity
// descending, build gid ascending. The kept set is emitted ascending by
// build gid, matching the unsharded operator's output byte for byte.
func selectTopK(cands []core.Match, k int) []core.Match {
	slices.SortFunc(cands, func(a, b core.Match) int {
		return cmp.Or(cmp.Compare(b.Sim, a.Sim), cmp.Compare(a.Right, b.Right))
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	slices.SortFunc(cands, func(a, b core.Match) int { return cmp.Compare(a.Right, b.Right) })
	return cands
}

// mergeTopK merges per-probe-shard cursor sets: probe shards partition
// the global probe rows, so advancing whichever shard's next row has the
// lowest global id yields ascending emission overall. limit > 0 cuts at
// limit matches (possibly mid-row, like exec.Limit).
func mergeTopK(perProbe [][]*pairCursor, k, limit int) ([]core.Match, bool, error) {
	type pending struct {
		g  rowGroup
		ok bool
	}
	heads := make([]pending, len(perProbe))
	for i, cs := range perProbe {
		g, ok, err := nextRow(cs)
		if err != nil {
			return nil, false, err
		}
		heads[i] = pending{g, ok}
	}
	var out []core.Match
	for {
		best := -1
		for i, h := range heads {
			if h.ok && (best < 0 || h.g.lgid < heads[best].g.lgid) {
				best = i
			}
		}
		if best < 0 {
			return out, false, nil
		}
		row := selectTopK(heads[best].g.cands, k)
		for _, m := range row {
			out = append(out, m)
			if limit > 0 && len(out) >= limit {
				return out, true, nil
			}
		}
		g, ok, err := nextRow(perProbe[best])
		if err != nil {
			return nil, false, err
		}
		heads[best] = pending{g, ok}
	}
}
