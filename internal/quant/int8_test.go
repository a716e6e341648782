package quant

import (
	"math"
	"math/rand"
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/vec"
)

// randomUnitMatrix builds n unit-norm rows of dimension dim.
func randomUnitMatrix(seed int64, n, dim int) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(n, dim)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(row)
	}
	return m
}

func TestPrecisionParseAndString(t *testing.T) {
	for _, p := range []Precision{PrecisionAuto, PrecisionF32, PrecisionF16, PrecisionInt8} {
		got, err := ParsePrecision(p.String())
		if err != nil {
			t.Fatalf("ParsePrecision(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip %v -> %v", p, got)
		}
	}
	for _, s := range []string{"bf16", "pq"} {
		if _, err := ParsePrecision(s); err == nil {
			t.Fatalf("expected error for unknown precision %q", s)
		}
	}
	if p, err := ParsePrecision(" FP16 "); err != nil || p != PrecisionF16 {
		t.Fatalf("case/space-insensitive parse failed: %v %v", p, err)
	}
}

// TestInt8RoundTripErrorBound: every element reconstructs within the
// guaranteed scale/2 bound.
func TestInt8RoundTripErrorBound(t *testing.T) {
	m := randomUnitMatrix(1, 50, 64)
	q := EncodeInt8(m)
	back := q.Decode()
	for i := 0; i < m.Rows(); i++ {
		bound := float64(q.Scale(i))/2 + 1e-7 // half a step
		for j := 0; j < m.Cols(); j++ {
			d := math.Abs(float64(m.At(i, j) - back.At(i, j)))
			if d > bound {
				t.Fatalf("row %d col %d: error %v > bound %v", i, j, d, bound)
			}
		}
	}
	if q.SizeBytes() >= m.SizeBytes()/3 {
		t.Fatalf("int8 size %d not ~4x below f32 %d", q.SizeBytes(), m.SizeBytes())
	}
}

// TestInt8DotAgreement: SimInt8 tracks the exact dot within the computed
// per-pair error bound, for both kernels.
func TestInt8DotAgreement(t *testing.T) {
	a := randomUnitMatrix(2, 30, 48)
	b := randomUnitMatrix(3, 30, 48)
	qa, qb := EncodeInt8(a), EncodeInt8(b)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			exact := vec.Dot(vec.KernelScalar, a.Row(i), b.Row(j))
			bound := Int8DotErrorBound(a.Cols(), qa.Scale(i), qb.Scale(j))
			for _, k := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
				approx := SimInt8(k, qa.Row(i), qb.Row(j), qa.Scale(i), qb.Scale(j))
				if d := float32(math.Abs(float64(exact - approx))); d > bound {
					t.Fatalf("pair (%d,%d) kernel %v: |%v - %v| = %v > bound %v",
						i, j, k, exact, approx, d, bound)
				}
			}
		}
	}
}

// TestInt8Kernels: scalar and unrolled integer dots agree exactly
// (integer arithmetic has no reassociation error).
func TestInt8Kernels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(70)
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
		}
		if s, u := DotInt8(vec.KernelScalar, a, b), DotInt8(vec.KernelSIMD, a, b); s != u {
			t.Fatalf("trial %d: scalar %d != unrolled %d", trial, s, u)
		}
	}
}

func TestInt8ZeroVector(t *testing.T) {
	m := mat.New(2, 8)
	copy(m.Row(1), []float32{1, 0, 0, 0, 0, 0, 0, 0})
	q := EncodeInt8(m)
	if q.Scale(0) != 0 {
		t.Fatalf("zero row scale = %v", q.Scale(0))
	}
	if got := SimInt8(vec.KernelSIMD, q.Row(0), q.Row(1), q.Scale(0), q.Scale(1)); got != 0 {
		t.Fatalf("zero-vector similarity = %v", got)
	}
	back := q.Decode()
	for j := 0; j < 8; j++ {
		if back.At(0, j) != 0 {
			t.Fatalf("zero row decoded to %v", back.Row(0))
		}
	}
}

func TestDotErrorBoundMonotone(t *testing.T) {
	// F32 is exact, F16 is tighter than int8 at practical dims, a value off
	// the ladder unbounded.
	for _, dim := range []int{8, 64, 100, 512} {
		f32 := PrecisionF32.DotErrorBound(dim)
		f16 := PrecisionF16.DotErrorBound(dim)
		i8 := PrecisionInt8.DotErrorBound(dim)
		off := Precision(99).DotErrorBound(dim)
		if f32 != 0 {
			t.Fatalf("f32 bound %v", f32)
		}
		if !(f16 > 0) || !(i8 > 0) {
			t.Fatalf("degenerate bounds f16=%v int8=%v", f16, i8)
		}
		if dim <= 512 && f16 >= i8 {
			t.Fatalf("dim %d: f16 bound %v >= int8 bound %v", dim, f16, i8)
		}
		if !math.IsInf(off, 1) {
			t.Fatalf("off-ladder bound %v", off)
		}
	}
}
