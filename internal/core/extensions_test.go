package core

import (
	"context"
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// TestNLJF16MatchesFloat32 validates the half-precision ablation: same
// matches as the float32 join away from the threshold boundary.
func TestNLJF16MatchesFloat32(t *testing.T) {
	ctx := context.Background()
	left := randomEmbeddings(41, 40, 32)
	right := randomEmbeddings(42, 40, 32)

	full, err := NLJ(ctx, left, right, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	half, err := NLJF16(ctx, mat.EncodeF16(left), mat.EncodeF16(right), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare ignoring pairs within quantization slack of the threshold.
	const slack = 0.01
	fullSet := matchKeys(full.Matches)
	halfSet := matchKeys(half.Matches)
	for k, sim := range fullSet {
		if sim < 0.5+slack {
			continue
		}
		if _, ok := halfSet[k]; !ok {
			t.Errorf("pair %v (sim %v) lost in f16", k, sim)
		}
	}
	for k, sim := range halfSet {
		if sim < 0.5+slack {
			continue
		}
		if _, ok := fullSet[k]; !ok {
			t.Errorf("pair %v (sim %v) invented by f16", k, sim)
		}
	}
	// Memory: half the float32 footprint.
	if got, want := mat.EncodeF16(left).SizeBytes(), left.SizeBytes()/2; got != want {
		t.Errorf("f16 bytes = %d, want %d", got, want)
	}
}

func TestNLJF16Options(t *testing.T) {
	ctx := context.Background()
	left := mat.EncodeF16(randomEmbeddings(43, 10, 8))
	right := mat.EncodeF16(randomEmbeddings(44, 10, 8))
	lf := relational.BitmapFromSelection(10, relational.Selection{0})
	res, err := NLJF16(ctx, left, right, -1, Options{LeftFilter: lf, Kernel: vec.KernelScalar, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 10 {
		t.Errorf("matches = %d", len(res.Matches))
	}
	for _, m := range res.Matches {
		if m.Left != 0 {
			t.Errorf("filter violated: %+v", m)
		}
	}
	bad := mat.NewF16(4, 5)
	if _, err := NLJF16(ctx, left, bad, 0, Options{}); err == nil {
		t.Error("expected dim error")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := NLJF16(cctx, left, right, 0, Options{}); err == nil {
		t.Error("expected cancellation")
	}
}

func TestF16MatrixBasics(t *testing.T) {
	m := randomEmbeddings(45, 5, 8)
	h := mat.EncodeF16(m)
	if h.Rows() != 5 || h.Cols() != 8 {
		t.Fatalf("shape %dx%d", h.Rows(), h.Cols())
	}
	back := h.Decode()
	for i := range m.Data {
		d := float64(m.Data[i] - back.Data[i])
		if d > 1e-3 || d < -1e-3 {
			t.Fatalf("element %d: %v vs %v", i, m.Data[i], back.Data[i])
		}
	}
	if len(h.Row(2)) != 8 {
		t.Error("Row broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative dims")
		}
	}()
	mat.NewF16(-1, 1)
}
