package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestKernelString(t *testing.T) {
	if KernelScalar.String() != "NO-SIMD" {
		t.Errorf("KernelScalar = %q", KernelScalar.String())
	}
	if KernelSIMD.String() != "SIMD" {
		t.Errorf("KernelSIMD = %q", KernelSIMD.String())
	}
	if Kernel(42).String() != "Kernel(42)" {
		t.Errorf("unknown kernel = %q", Kernel(42).String())
	}
}

func TestDotBasics(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	want := float32(32)
	for _, k := range []Kernel{KernelScalar, KernelSIMD} {
		if got := Dot(k, a, b); got != want {
			t.Errorf("%v Dot = %v, want %v", k, got, want)
		}
	}
}

func TestDotEmpty(t *testing.T) {
	for _, k := range []Kernel{KernelScalar, KernelSIMD} {
		if got := Dot(k, nil, nil); got != 0 {
			t.Errorf("%v Dot(nil,nil) = %v, want 0", k, got)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	for _, k := range []Kernel{KernelScalar, KernelSIMD} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: expected panic on mismatched dims", k)
				}
			}()
			Dot(k, []float32{1}, []float32{1, 2})
		}()
	}
}

// TestDotKernelsAgree is the core property: scalar and unrolled kernels
// compute identical dot products (within reassociation error).
func TestDotKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 256, 1000} {
		a := randomVec(rng, n)
		b := randomVec(rng, n)
		s := float64(Dot(KernelScalar, a, b))
		u := float64(Dot(KernelSIMD, a, b))
		if !almostEqual(s, u, 1e-4) {
			t.Errorf("n=%d: scalar %v vs simd %v", n, s, u)
		}
	}
}

func TestDotKernelsAgreeQuick(t *testing.T) {
	f := func(raw []float32) bool {
		// Bound values to avoid inf/NaN overflow noise.
		a := make([]float32, len(raw))
		b := make([]float32, len(raw))
		for i, x := range raw {
			v := float32(math.Mod(float64(x), 100))
			if math.IsNaN(float64(v)) {
				v = 1
			}
			a[i] = v
			b[len(raw)-1-i] = v * 0.5
		}
		s := float64(Dot(KernelScalar, a, b))
		u := float64(Dot(KernelSIMD, a, b))
		return almostEqual(s, u, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Errorf("Norm(nil) = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if !IsNormalized(v, 1e-5) {
		t.Errorf("not normalized: %v", v)
	}
	if !almostEqual(float64(v[0]), 0.6, 1e-5) || !almostEqual(float64(v[1]), 0.8, 1e-5) {
		t.Errorf("Normalize = %v", v)
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	v := []float32{0, 0, 0}
	Normalize(v)
	for _, x := range v {
		if x != 0 {
			t.Fatalf("zero vector changed: %v", v)
		}
	}
}

func TestNormalizeInto(t *testing.T) {
	src := []float32{0, 5}
	dst := make([]float32, 2)
	NormalizeInto(dst, src)
	if dst[0] != 0 || dst[1] != 1 {
		t.Errorf("NormalizeInto = %v", dst)
	}
	// Zero vector copies through.
	zero := []float32{0, 0}
	NormalizeInto(dst, zero)
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("NormalizeInto(zero) = %v", dst)
	}
	// Aliasing is allowed.
	v := []float32{3, 4}
	NormalizeInto(v, v)
	if !IsNormalized(v, 1e-5) {
		t.Errorf("aliased NormalizeInto = %v", v)
	}
}

func TestNormalizeIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NormalizeInto(make([]float32, 3), make([]float32, 2))
}

// TestNormalizeProperty: normalized random vectors have unit norm.
func TestNormalizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		v := randomVec(rng, 1+rng.Intn(300))
		Normalize(v)
		if !IsNormalized(v, 1e-4) {
			t.Fatalf("iter %d: norm = %v", i, Norm(v))
		}
	}
}

func TestCosine(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	c := []float32{1, 0}
	d := []float32{-1, 0}
	for _, k := range []Kernel{KernelScalar, KernelSIMD} {
		if got := Cosine(k, a, b); !almostEqual(float64(got), 0, 1e-6) {
			t.Errorf("cos(orthogonal) = %v", got)
		}
		if got := Cosine(k, a, c); !almostEqual(float64(got), 1, 1e-6) {
			t.Errorf("cos(same) = %v", got)
		}
		if got := Cosine(k, a, d); !almostEqual(float64(got), -1, 1e-6) {
			t.Errorf("cos(opposite) = %v", got)
		}
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := Cosine(KernelScalar, []float32{0, 0}, []float32{1, 2}); got != 0 {
		t.Errorf("cos with zero vec = %v, want 0", got)
	}
}

// TestCosineNormalizedMatchesCosine validates the identity the tensor join
// depends on: for unit vectors, cosine == dot.
func TestCosineNormalizedMatchesCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		a := Normalize(randomVec(rng, 100))
		b := Normalize(randomVec(rng, 100))
		full := float64(Cosine(KernelSIMD, a, b))
		dot := float64(Dot(KernelSIMD, a, b))
		if !almostEqual(full, dot, 1e-3) {
			t.Fatalf("iter %d: cosine %v vs dot %v", i, full, dot)
		}
	}
}

// TestCosineDistance: the distance 1 - Cosine is 0 from a vector to
// itself and 2 to its opposite.
func TestCosineDistance(t *testing.T) {
	distance := func(a, b []float32) float32 { return 1 - Cosine(KernelScalar, a, b) }
	a := []float32{1, 0}
	if got := distance(a, a); !almostEqual(float64(got), 0, 1e-6) {
		t.Errorf("distance to self = %v", got)
	}
	b := []float32{-1, 0}
	if got := distance(a, b); !almostEqual(float64(got), 2, 1e-6) {
		t.Errorf("distance to opposite = %v", got)
	}
}

func TestCosineRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		a := randomVec(rng, 32)
		b := randomVec(rng, 32)
		c := float64(Cosine(KernelSIMD, a, b))
		if c < -1.0001 || c > 1.0001 {
			t.Fatalf("cosine out of range: %v", c)
		}
	}
}

func TestAXPY(t *testing.T) {
	y := []float32{1, 1}
	AXPY(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v", y)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AXPY(1, []float32{1}, []float32{1, 2})
}

func TestClone(t *testing.T) {
	v := []float32{1, 2}
	c := Clone(v)
	v[0], v[1] = 3, 6
	if c[0] != 1 || c[1] != 2 {
		t.Errorf("Clone mutated: %v", c)
	}
}

func TestEqual(t *testing.T) {
	if !Equal([]float32{1, 2}, []float32{1.000001, 2}, 1e-3) {
		t.Error("expected equal within eps")
	}
	if Equal([]float32{1}, []float32{1, 2}, 1) {
		t.Error("length mismatch should not be equal")
	}
	if Equal([]float32{1}, []float32{2}, 0.5) {
		t.Error("expected not equal")
	}
}

// Cauchy-Schwarz property: |a·b| <= ||a||*||b||.
func TestCauchySchwarzProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		a := randomVec(rng, 64)
		b := randomVec(rng, 64)
		lhs := math.Abs(float64(Dot(KernelSIMD, a, b)))
		rhs := float64(Norm(a)) * float64(Norm(b))
		if lhs > rhs*(1+1e-4) {
			t.Fatalf("Cauchy-Schwarz violated: %v > %v", lhs, rhs)
		}
	}
}

func randomVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}
