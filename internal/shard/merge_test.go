package shard

import (
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"ejoin/internal/core"
)

// feedCursor builds a streamCursor fed by a goroutine that hands over the
// given blocks one at a time (unbuffered, like the real producers) and
// counts completed handoffs. Closing done releases a blocked producer.
func feedCursor(blocks [][]core.Match, done <-chan struct{}, sent *atomic.Int64) *streamCursor {
	ch := make(chan streamMsg)
	c := &streamCursor{ch: ch, waitNS: new(atomic.Int64)}
	go func() {
		defer close(ch)
		for _, b := range blocks {
			select {
			case ch <- streamMsg{blk: b}:
				if sent != nil {
					sent.Add(1)
				}
			case <-done:
				return
			}
		}
	}()
	return c
}

func errCursor(err error) *streamCursor {
	ch := make(chan streamMsg)
	c := &streamCursor{ch: ch, waitNS: new(atomic.Int64)}
	go func() {
		ch <- streamMsg{err: err}
		close(ch)
	}()
	return c
}

func m(l, r int, s float32) core.Match { return core.Match{Left: l, Right: r, Sim: s} }

func sortedMerge(streams ...[]core.Match) []core.Match {
	var all []core.Match
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return matchLess(all[i], all[j]) })
	return all
}

func TestMergeThresholdOrdersAndExhausts(t *testing.T) {
	a := []core.Match{m(0, 3, 1), m(2, 1, 1), m(2, 9, 1), m(7, 0, 1)}
	b := []core.Match{m(1, 4, 1), m(2, 5, 1), m(9, 9, 1)}
	c := []core.Match{m(0, 8, 1), m(8, 2, 1)}
	done := make(chan struct{})
	defer close(done)
	cursors := []*streamCursor{
		feedCursor([][]core.Match{a[:2], a[2:]}, done, nil),
		feedCursor([][]core.Match{b}, done, nil),
		feedCursor([][]core.Match{c[:1], c[1:]}, done, nil),
	}
	got, truncated, err := mergeThreshold(cursors, 0)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("unbounded merge reported truncation")
	}
	want := sortedMerge(a, b, c)
	if len(got) != len(want) {
		t.Fatalf("merged %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeThresholdLimit(t *testing.T) {
	a := []core.Match{m(0, 0, 1), m(1, 0, 1), m(2, 0, 1)}
	b := []core.Match{m(0, 5, 1), m(3, 0, 1)}
	done := make(chan struct{})
	defer close(done)
	cursors := []*streamCursor{
		feedCursor([][]core.Match{a}, done, nil),
		feedCursor([][]core.Match{b}, done, nil),
	}
	got, truncated, err := mergeThreshold(cursors, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("limited merge did not report truncation")
	}
	want := sortedMerge(a, b)[:3]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMergeThresholdBounded is the laziness contract: the merger holds at
// most one block per cursor, so a LIMIT cut must leave nearly all of a
// deep stream's blocks unconsumed (at most the consumed block plus the
// one handoff a producer may complete before observing the cut).
func TestMergeThresholdBounded(t *testing.T) {
	const blocksPerCursor = 50
	done := make(chan struct{})
	var sent atomic.Int64
	mkBlocks := func(off int) [][]core.Match {
		var bs [][]core.Match
		for i := 0; i < blocksPerCursor; i++ {
			bs = append(bs, []core.Match{m(i, off, 1)})
		}
		return bs
	}
	cursors := []*streamCursor{
		feedCursor(mkBlocks(0), done, &sent),
		feedCursor(mkBlocks(1), done, &sent),
		feedCursor(mkBlocks(2), done, &sent),
	}
	got, truncated, err := mergeThreshold(cursors, 1)
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(got) != 1 {
		t.Fatalf("got %d matches (truncated=%v), want 1 truncated", len(got), truncated)
	}
	// Each cursor completed at most its peeked head block plus one more
	// handoff racing the cut: 2 per cursor, not blocksPerCursor.
	if n := sent.Load(); n > 6 {
		t.Errorf("merge consumed %d blocks for a LIMIT 1 cut; not bounded", n)
	}
}

func TestMergeThresholdError(t *testing.T) {
	want := errors.New("shard exploded")
	done := make(chan struct{})
	defer close(done)
	cursors := []*streamCursor{
		feedCursor([][]core.Match{{m(0, 0, 1)}}, done, nil),
		errCursor(want),
	}
	if _, _, err := mergeThreshold(cursors, 0); !errors.Is(err, want) {
		t.Fatalf("got err %v, want %v", err, want)
	}
}
