package core

// Embed is the sequential reference for E_µ. The engine embeds a column in
// parallel through the shared store's scheduler (embstore.Store.EmbedAll,
// which column chunks are built with); these tests hold that path to the
// reference on a cold store.

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ejoin/internal/embstore"
	"ejoin/internal/mat"
	"ejoin/internal/model"
)

// embedParallel embeds inputs on a fresh store with threads workers.
func embedParallel(ctx context.Context, m model.Model, inputs []string, threads int) (*mat.Matrix, error) {
	out, _, err := embstore.New(embstore.Config{}).EmbedAll(ctx, m, inputs, embstore.BatchOptions{Threads: threads})
	return out, err
}

func TestEmbedParallelMatchesSequential(t *testing.T) {
	m := testModel(t, 48)
	ctx := context.Background()
	inputs := randomWords(rand.New(rand.NewSource(91)), 200)
	seq, err := Embed(ctx, m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 1, 2, 7, 500} {
		par, err := embedParallel(ctx, m, inputs, threads)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !mat.Equal(seq, par, 0) {
			t.Fatalf("threads=%d: parallel embedding differs", threads)
		}
	}
}

func TestEmbedParallelErrors(t *testing.T) {
	inner := testModel(t, 16)
	boom := errors.New("down")
	bad := &model.FailingModel{Inner: inner, Match: func(s string) bool { return s == "poison" }, Err: boom}
	inputs := []string{"a", "b", "poison", "d", "e", "f"}
	if _, err := embedParallel(context.Background(), bad, inputs, 3); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := embedParallel(ctx, inner, inputs, 3); err == nil {
		t.Error("expected cancellation")
	}
	// Empty input is fine.
	out, err := embedParallel(context.Background(), inner, nil, 4)
	if err != nil || out.Rows() != 0 {
		t.Errorf("empty: %v %v", out, err)
	}
}

// TestEmbedParallelFaster: with an expensive model, the parallel phase
// must beat sequential (2+ cores assumed in CI). Timing comparisons are
// noisy on loaded machines, so the test retries and accepts any speedup.
func TestEmbedParallelFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	inner := testModel(t, 16)
	slow := slowModel{inner, 500 * time.Microsecond}
	inputs := randomWords(rand.New(rand.NewSource(93)), 64)
	ctx := context.Background()

	var last string
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		if _, err := Embed(ctx, slow, inputs); err != nil {
			t.Fatal(err)
		}
		seq := time.Since(start)

		start = time.Now()
		if _, err := embedParallel(ctx, slow, inputs, 2); err != nil {
			t.Fatal(err)
		}
		par := time.Since(start)
		if par < seq {
			return
		}
		last = par.String() + " vs " + seq.String()
	}
	t.Errorf("parallel never beat sequential in 3 attempts (last: %s)", last)
}
