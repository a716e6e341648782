// Package vec provides the float32 vector kernels underlying all
// embedding-domain computation: dot products, norms, normalization, and
// cosine similarity.
//
// The paper's physical optimization layer (Section V) distinguishes a plain
// scalar implementation from a SIMD (AVX-512) implementation. A Kernel
// value selects between the two families:
//
//   - KernelScalar: straightforward one-element-at-a-time loops.
//   - KernelSIMD: the fastest implementation the build and the host offer.
//     In this package that is pure Go: 8-way unrolled loops with hoisted
//     bounds checks and independent accumulators. The Go compiler does not
//     autovectorize, so these win by instruction-level parallelism only.
//     In package mat, KernelSIMD runs the similarity GEMM on an AVX2
//     assembly micro-kernel where the host has one (see mat's package
//     comment) and on a pure-Go register tile elsewhere.
//
// Every function that takes a Kernel is exact: both kernels compute the same
// result up to floating-point reassociation.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// Kernel selects the compute implementation used by kernels in this package
// and by the operators built on top of them.
type Kernel int

const (
	// KernelScalar is the portable one-element-at-a-time implementation.
	KernelScalar Kernel = iota
	// KernelSIMD is the paper's SIMD code path: unrolled pure-Go loops in
	// this package, the AVX2 GEMM micro-kernel in mat where available.
	KernelSIMD
)

// String returns the kernel name as used in experiment output.
func (k Kernel) String() string {
	switch k {
	case KernelScalar:
		return "NO-SIMD"
	case KernelSIMD:
		return "SIMD"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// DefaultKernel is the kernel execution defaults to when the caller has
// no preference: KernelSIMD, which is never slower than scalar. The cmds and the executor's fallback path all
// resolve their default through this single point.
func DefaultKernel() Kernel { return KernelSIMD }

// ErrDimensionMismatch is returned when two vectors of different
// dimensionality are combined.
var ErrDimensionMismatch = errors.New("vec: dimension mismatch")

// Dot computes the inner product of a and b using the given kernel.
// It panics if the lengths differ; use CheckedDot for an error-returning
// variant (operators validate dimensions once per relation, not per pair).
func Dot(k Kernel, a, b []float32) float32 {
	if k == KernelSIMD {
		return dotUnrolled(a, b)
	}
	return dotScalar(a, b)
}

// CheckedDot is Dot with dimension validation.
func CheckedDot(k Kernel, a, b []float32) (float32, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(a), len(b))
	}
	return Dot(k, a, b), nil
}

func dotScalar(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dot dimension mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// dotUnrolled is the "SIMD" kernel: 8 independent accumulators, bounds
// checks hoisted by re-slicing, tail handled scalar.
func dotUnrolled(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dot dimension mismatch")
	}
	n := len(a)
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		s4 += aa[4] * bb[4]
		s5 += aa[5] * bb[5]
		s6 += aa[6] * bb[6]
		s7 += aa[7] * bb[7]
	}
	s := (s0 + s4) + (s1 + s5) + (s2 + s6) + (s3 + s7)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v []float32) float32 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return float32(math.Sqrt(s))
}

// SquaredNorm returns the squared Euclidean norm of v.
func SquaredNorm(v []float32) float32 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return float32(s)
}

// Normalize scales v in place to unit L2 norm and returns it. The zero
// vector is returned unchanged (there is no direction to preserve).
func Normalize(v []float32) []float32 {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// NormalizeInto writes the unit-norm version of src into dst and returns
// dst. dst and src may alias. It panics on length mismatch.
func NormalizeInto(dst, src []float32) []float32 {
	if len(dst) != len(src) {
		panic("vec: NormalizeInto length mismatch")
	}
	n := Norm(src)
	if n == 0 {
		copy(dst, src)
		return dst
	}
	inv := 1 / n
	for i, x := range src {
		dst[i] = x * inv
	}
	return dst
}

// IsNormalized reports whether v has unit norm within tolerance eps.
func IsNormalized(v []float32, eps float32) bool {
	n := Norm(v)
	return n > 1-eps && n < 1+eps
}

// Cosine computes the full cosine similarity A·B/(‖A‖‖B‖) as in the paper's
// Cosine Similarity equation (Section III-A). Either zero vector yields 0.
func Cosine(k Kernel, a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(k, a, b) / (na * nb)
}

// CosineNormalized computes cosine similarity assuming both inputs are
// already unit-norm, which reduces to the dot product (the identity the
// tensor formulation of Section IV-C relies on).
func CosineNormalized(k Kernel, a, b []float32) float32 {
	return Dot(k, a, b)
}

// CosineDistance is 1 - Cosine, the distance metric used by the HNSW index.
func CosineDistance(k Kernel, a, b []float32) float32 {
	return 1 - Cosine(k, a, b)
}

// Add returns a+b element-wise in a newly allocated slice.
func Add(a, b []float32) ([]float32, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(a), len(b))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

// AXPY computes y += alpha*x in place. It panics on length mismatch.
func AXPY(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("vec: AXPY length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place and returns v.
func Scale(alpha float32, v []float32) []float32 {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Clone returns a copy of v.
func Clone(v []float32) []float32 {
	out := make([]float32, len(v))
	copy(out, v)
	return out
}

// Equal reports element-wise equality within tolerance eps.
func Equal(a, b []float32, eps float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}
