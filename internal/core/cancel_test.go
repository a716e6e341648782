package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ejoin/internal/hnsw"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/vec"
)

func randMatrix(t *testing.T, rows, cols int, seed int64) *mat.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.Float32()
		}
		vec.Normalize(row)
	}
	return m
}

// TestScanOperatorsObserveCancelledContext: every scan operator must fail
// fast on an already-cancelled context instead of completing the join.
func TestScanOperatorsObserveCancelledContext(t *testing.T) {
	left := randMatrix(t, 64, 16, 1)
	right := randMatrix(t, 64, 16, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Kernel: vec.KernelScalar, Threads: 2}

	ops := map[string]func() error{
		"NLJ": func() error {
			_, err := NLJ(ctx, left, right, 0.5, opts)
			return err
		},
		"TensorJoin": func() error {
			o := opts
			o.BatchRows, o.BatchCols = 8, 8
			_, err := TensorJoin(ctx, left, right, 0.5, o)
			return err
		},
		"TensorTopK": func() error {
			_, err := TensorTopK(ctx, left, right, 3, opts)
			return err
		},
		"IndexJoin": func() error {
			idx, err := BuildIndex(right, hnsw.Config{M: 8, EfConstruction: 32, Seed: 11})
			if err != nil {
				return err
			}
			_, err = IndexJoin(ctx, left, idx, IndexJoinCondition{K: 3, MinSim: -2}, opts)
			return err
		},
	}
	for name, run := range ops {
		t.Run(name, func(t *testing.T) {
			err := run()
			if err == nil {
				t.Fatal("join completed despite cancelled context")
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not wrap context.Canceled", err)
			}
		})
	}
}

// countdownCtx is a context whose Err becomes context.Canceled after a
// fixed number of Err calls: a deterministic probe of how often an
// operator polls its context, independent of wall-clock speed.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestNLJChecksContextMidRow: a single left row against a wide right side
// must still poll the context (the stride checks inside the inner loop),
// so cancellation cannot be deferred to the next left row.
func TestNLJChecksContextMidRow(t *testing.T) {
	const dim = 8
	left := randMatrix(t, 1, dim, 3)
	// One left row, many right rows: without inner-loop checks the only
	// polls are one per left row plus one after the join (3 total here).
	right := randMatrix(t, 10*cancelStride, dim, 4)
	ctx := newCountdownCtx(4)
	_, err := NLJ(ctx, left, right, 0.5, Options{Kernel: vec.KernelScalar, Threads: 1})
	if err == nil {
		t.Fatal("join completed: inner loop never polled the context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestTensorJoinCancelsAtBlockBoundary: the blocked tensor join polls per
// mini-batch, so a cancellation arriving mid-join aborts at the next
// block boundary instead of finishing the scan.
func TestTensorJoinCancelsAtBlockBoundary(t *testing.T) {
	left := randMatrix(t, 64, 8, 5)
	right := randMatrix(t, 64, 8, 6)
	opts := Options{Kernel: vec.KernelScalar, Threads: 1, BatchRows: 8, BatchCols: 8}
	// 64 blocks; allow a couple of polls, then cancel.
	ctx := newCountdownCtx(3)
	_, err := TensorJoin(ctx, left, right, 0.5, opts)
	if err == nil {
		t.Fatal("tensor join completed despite cancellation after 3 blocks")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled at block") {
		t.Errorf("error %q should report the block boundary it stopped at", err)
	}
}

// TestNaiveNLJCancellationIsPrompt drives the per-pair-embedding join with
// a slow model; the per-pair check must abort within a few model calls.
func TestNaiveNLJCancellationIsPrompt(t *testing.T) {
	base, err := model.NewHashEmbedder(16)
	if err != nil {
		t.Fatal(err)
	}
	slow := slowModel{base, 2 * time.Millisecond}
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = string(rune('a' + i%26))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := NaiveNLJ(ctx, slow, texts, texts, 0.5, Options{Kernel: vec.KernelScalar})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled naive join reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("cancelled naive join still running after %v", time.Since(start))
	}
}
