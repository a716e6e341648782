package mat

import (
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Errorf("At = %v", m.At(1, 2))
	}
	r := m.Row(1)
	if len(r) != 3 || r[2] != 5 {
		t.Errorf("Row = %v", r)
	}
	if m.SizeBytes() != 24 {
		t.Errorf("SizeBytes = %d", m.SizeBytes())
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromFlat(t *testing.T) {
	m, err := FromFlat(2, 2, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At = %v", m.At(1, 0))
	}
	if _, err := FromFlat(2, 2, []float32{1}); err == nil {
		t.Error("expected length error")
	}
}

func TestSlice(t *testing.T) {
	m, _ := FromFlat(4, 1, []float32{1, 2, 3, 4})
	s := m.Slice(1, 3)
	if s.Rows() != 2 || s.At(0, 0) != 2 || s.At(1, 0) != 3 {
		t.Errorf("Slice = %+v", s)
	}
	// Shares storage.
	s.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Error("Slice must alias parent storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad range")
		}
	}()
	m.Slice(3, 1)
}

func TestClone(t *testing.T) {
	m, _ := FromFlat(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone must not alias")
	}
}

func TestNormalizeRows(t *testing.T) {
	m, _ := FromFlat(3, 2, []float32{3, 4, 0, 0, 1, 0})
	m.NormalizeRows()
	if !vec.IsNormalized(m.Row(0), 1e-5) || !vec.IsNormalized(m.Row(2), 1e-5) {
		t.Error("rows not normalized")
	}
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Error("zero row should stay zero")
	}
}

func TestEqualMatrix(t *testing.T) {
	a, _ := FromFlat(1, 2, []float32{1, 2})
	b, _ := FromFlat(1, 2, []float32{1, 2.0000001})
	if !Equal(a, b, 1e-3) {
		t.Error("expected equal")
	}
	c := New(2, 1)
	if Equal(a, c, 1) {
		t.Error("shape mismatch must not be equal")
	}
}

// product is r·sᵀ by MulTransposeInto into a new matrix.
func product(r, s *Matrix, opts GemmOptions) (*Matrix, error) {
	dst := New(r.Rows(), s.Rows())
	return dst, MulTransposeInto(dst, r, s, opts)
}

// reference computes r·sᵀ naively for comparison.
func reference(r, s *Matrix) *Matrix {
	d := New(r.Rows(), s.Rows())
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < s.Rows(); j++ {
			var acc float32
			for k := 0; k < r.Cols(); k++ {
				acc += r.At(i, k) * s.At(j, k)
			}
			d.Set(i, j, acc)
		}
	}
	return d
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestMulTransposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := []struct{ nr, ns, d int }{
		{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {17, 33, 100},
		{64, 64, 16}, {65, 63, 5}, {100, 10, 256}, {2, 200, 1},
	}
	for _, sh := range shapes {
		r := randomMatrix(rng, sh.nr, sh.d)
		s := randomMatrix(rng, sh.ns, sh.d)
		want := reference(r, s)
		for _, k := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
			for _, threads := range []int{1, 2, 4} {
				got, err := product(r, s, GemmOptions{Threads: threads, Kernel: k, BlockRows: 16, BlockCols: 16})
				if err != nil {
					t.Fatal(err)
				}
				if !Equal(got, want, 1e-3) {
					t.Fatalf("shape %+v kernel %v threads %d: mismatch", sh, k, threads)
				}
			}
		}
	}
}

func TestMulTransposeErrors(t *testing.T) {
	r := New(2, 3)
	s := New(2, 4)
	if _, err := product(r, s, GemmOptions{}); err == nil {
		t.Error("expected inner-dimension error")
	}
	dst := New(1, 1)
	s2 := New(2, 3)
	if err := MulTransposeInto(dst, r, s2, GemmOptions{}); err == nil {
		t.Error("expected dst shape error")
	}
}

func TestMulTransposeEmpty(t *testing.T) {
	r := New(0, 5)
	s := New(3, 5)
	dst := New(0, 3)
	if err := MulTransposeInto(dst, r, s, GemmOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestMulTransposeIdentityProperty(t *testing.T) {
	// For unit-norm rows, diagonal of R·Rᵀ is 1.
	rng := rand.New(rand.NewSource(29))
	r := randomMatrix(rng, 20, 50)
	r.NormalizeRows()
	d, err := product(r, r, GemmOptions{Kernel: vec.KernelSIMD})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got := d.At(i, i); got < 0.999 || got > 1.001 {
			t.Fatalf("diag[%d] = %v", i, got)
		}
	}
	// Symmetry: D[i][j] == D[j][i].
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if diff := d.At(i, j) - d.At(j, i); diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("asymmetry at (%d,%d): %v", i, j, diff)
			}
		}
	}
}

func TestBatchShape(t *testing.T) {
	// Unbounded budget covers whole input.
	rb, sb := BatchShape(100, 200, 0)
	if rb != 100 || sb != 200 {
		t.Errorf("unbounded = %d,%d", rb, sb)
	}
	// Budget larger than needed.
	rb, sb = BatchShape(10, 10, 1<<20)
	if rb != 10 || sb != 10 {
		t.Errorf("big budget = %d,%d", rb, sb)
	}
	// Constrained budget respects the byte bound.
	rb, sb = BatchShape(1000, 1000, 4*100*100)
	if int64(rb)*int64(sb)*4 > 4*100*100 {
		t.Errorf("over budget: %d*%d", rb, sb)
	}
	if rb < 1 || sb < 1 {
		t.Errorf("degenerate shape: %d,%d", rb, sb)
	}
	// Extreme budget still yields at least 1x1.
	rb, sb = BatchShape(1000, 1000, 1)
	if rb != 1 || sb != 1 {
		t.Errorf("tiny budget = %d,%d", rb, sb)
	}
	// Aspect ratio follows inputs.
	rb, sb = BatchShape(10000, 100, 4*1000)
	if rb < sb {
		t.Errorf("aspect not preserved: %d,%d", rb, sb)
	}
}

func TestForEachBlockCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := randomMatrix(rng, 37, 8)
	s := randomMatrix(rng, 23, 8)
	want := reference(r, s)

	for _, budget := range []int64{0, 4 * 5 * 5, 4 * 64 * 64, 4} {
		got := New(37, 23)
		seen := 0
		err := ForEachBlock(r, s, BatchOptions{BudgetBytes: budget}, func(block *Matrix, rOff, sOff int) error {
			seen++
			for i := 0; i < block.Rows(); i++ {
				for j := 0; j < block.Cols(); j++ {
					got.Set(rOff+i, sOff+j, block.At(i, j))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen == 0 {
			t.Fatal("no blocks visited")
		}
		if !Equal(got, want, 1e-3) {
			t.Fatalf("budget %d: reassembled result mismatch", budget)
		}
	}
}

func TestForEachBlockExplicitShape(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	r := randomMatrix(rng, 10, 4)
	s := randomMatrix(rng, 10, 4)
	var blocks int
	err := ForEachBlock(r, s, BatchOptions{BatchRows: 3, BatchCols: 4}, func(block *Matrix, rOff, sOff int) error {
		blocks++
		if block.Rows() > 3 || block.Cols() > 4 {
			t.Errorf("block too big: %dx%d", block.Rows(), block.Cols())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// ceil(10/3)*ceil(10/4) = 4*3 = 12 blocks.
	if blocks != 12 {
		t.Errorf("blocks = %d, want 12", blocks)
	}
}

func TestForEachBlockPropagatesError(t *testing.T) {
	r := New(4, 2)
	s := New(4, 2)
	sentinel := errTest("boom")
	err := ForEachBlock(r, s, BatchOptions{BatchRows: 2, BatchCols: 2}, func(*Matrix, int, int) error {
		return sentinel
	})
	if err != sentinel {
		t.Errorf("err = %v", err)
	}
	// Dimension error surfaces too.
	bad := New(4, 3)
	if err := ForEachBlock(r, bad, BatchOptions{}, func(*Matrix, int, int) error { return nil }); err == nil {
		t.Error("expected dim error")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestForEachBlockEmpty(t *testing.T) {
	r := New(0, 2)
	s := New(4, 2)
	called := false
	if err := ForEachBlock(r, s, BatchOptions{}, func(*Matrix, int, int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("visitor called for empty input")
	}
}

func TestPeakBlockBytes(t *testing.T) {
	// Unbatched: whole matrix.
	if got := PeakBlockBytes(100, 200, BatchOptions{}); got != 4*100*200 {
		t.Errorf("unbatched = %d", got)
	}
	// Budgeted: under the budget.
	budget := int64(4 * 10 * 10)
	if got := PeakBlockBytes(1000, 1000, BatchOptions{BudgetBytes: budget}); got > budget {
		t.Errorf("over budget: %d > %d", got, budget)
	}
	// Explicit shape wins.
	if got := PeakBlockBytes(1000, 1000, BatchOptions{BatchRows: 5, BatchCols: 7}); got != 4*5*7 {
		t.Errorf("explicit = %d", got)
	}
}
