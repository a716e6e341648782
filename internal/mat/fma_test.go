package mat

import (
	"math"
	"math/big"
	"testing"
)

// hardwareFMA32 is the host's VFMADD231SS where this build has the
// assembly kernels and the host runs them, and nil elsewhere.
var hardwareFMA32 func(a, b, c float32) float32

// exactFMA32 is a*b+c rounded once to float32 by math/big: the product
// and the sum are exact at 1100 bits (the widest finite sum spans about
// 560), and Float32 rounds to nearest even, to subnormals and to ±Inf as
// IEEE 754 does. A non-finite operand goes through float64, where
// infinities add exactly; ok is false when the result is NaN.
func exactFMA32(a, b, c float32) (r float32, ok bool) {
	if f := float64(a)*float64(b) + float64(c); math.IsInf(f, 0) || f != f ||
		math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) || math.IsInf(float64(c), 0) {
		return float32(f), f == f
	}
	x := new(big.Float).SetPrec(1100).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetFloat64(float64(c)))
	r, _ = x.Float32()
	return r, true
}

// refDotSeq is fmaSeq over softFMA32: the reference every kernel's cells
// are held to, whatever fma32 compiles to on this architecture.
func refDotSeq(a, b []float32) float32 {
	var acc float32
	for k := range a {
		acc = softFMA32(a[k], b[k], acc)
	}
	return acc
}

// checkFMA32 fails the test unless softFMA32 agrees with the exact result,
// with this build's fma32 and with the host's instruction, bit for bit
// (NaN results only have to be NaN).
func checkFMA32(t *testing.T, a, b, c float32) {
	t.Helper()
	got := softFMA32(a, b, c)
	want, ok := exactFMA32(a, b, c)
	if !ok {
		if got == got {
			t.Fatalf("softFMA32(%g, %g, %g) = %g, want NaN", a, b, c, got)
		}
	} else if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("softFMA32(%g, %g, %g) = %g (%#08x), exact rounding gives %g (%#08x)",
			a, b, c, got, math.Float32bits(got), want, math.Float32bits(want))
	}
	if f := fma32(a, b, c); f != f {
		if got == got {
			t.Fatalf("fma32(%g, %g, %g) = NaN, softFMA32 gives %g", a, b, c, got)
		}
	} else if math.Float32bits(f) != math.Float32bits(got) {
		t.Fatalf("fma32(%g, %g, %g) = %g (%#08x), softFMA32 gives %g (%#08x)",
			a, b, c, f, math.Float32bits(f), got, math.Float32bits(got))
	}
	if hardwareFMA32 == nil {
		return
	}
	if hw := hardwareFMA32(a, b, c); hw != hw {
		if got == got {
			t.Fatalf("softFMA32(%g, %g, %g) = %g, VFMADD231SS gives NaN", a, b, c, got)
		}
	} else if math.Float32bits(got) != math.Float32bits(hw) {
		t.Fatalf("softFMA32(%g, %g, %g) = %g (%#08x), VFMADD231SS gives %g (%#08x)",
			a, b, c, got, math.Float32bits(got), hw, math.Float32bits(hw))
	}
}

// fmaCases are the inputs one rounding has to get right where two would
// not, and the edges of the float32 range.
func fmaCases() [][3]float32 {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	tiny, maxf := float32(math.SmallestNonzeroFloat32), float32(math.MaxFloat32)
	one := float32(1)
	ulp := math.Nextafter32(1, 2) - 1 // 2^-23
	bits := math.Float32frombits
	return [][3]float32{
		// Rounded to float64 first, each sum lands on a float32 midpoint
		// that the exact value lies just off, and the tie to even goes the
		// wrong way: 1 + 2^-24 + 2^-53.3 is 1 + 2^-23, not 1; 1 + 1.5*2^-23
		// - 2^-70 is 1 + 2^-23, not 1 + 2^-22; 2^128 - 2^103 - 2^57 is
		// MaxFloat32, not +Inf. Negated, they mirror.
		{bits(0x338007e0), bits(0x3f7ff041), 1},
		{bits(0x397ffffe), bits(0x39800001), bits(0x3f800001)},
		{0x1p51 * (1 + ulp), 0x1p52 * (1 - ulp), maxf},
		{-bits(0x338007e0), bits(0x3f7ff041), -1},
		{bits(0x397ffffe), -bits(0x39800001), -bits(0x3f800001)},
		{-0x1p51 * (1 + ulp), 0x1p52 * (1 - ulp), -maxf},
		// The same among the subnormals: 2^-127 + 3*2^-150 - 2^-196 is
		// 2^-127 + 2^-149, not 2^-127 + 2^-148.
		{0x1p-75 * (1 + ulp), 0x1p-75 * (1 - ulp), 0x1p-127 + tiny},
		// Exact midpoints stay ties to even.
		{0x1p-24, 1, 1},
		{0x1p-24, 3, 1},
		// Cancellation, signed zeros and exact zero sums.
		{one, one, -1},
		{float32(math.Copysign(0, -1)), 1, float32(math.Copysign(0, -1))},
		{float32(math.Copysign(0, -1)), 1, 0},
		{0, -1, float32(math.Copysign(0, -1))},
		{3, 5, -15},
		// Subnormal products, addends and results.
		{tiny, 0.5, 0},
		{tiny, 1.5, 0},
		{tiny, 2.5, tiny},
		{0x1p-70, 0x1p-70, tiny},
		{0x1p-75, 0x1p-75, 0},
		{0x1p-100, 0x1p-40, -0x1p-126},
		{0x1p-63, 0x1p-63, 0x1p-126 - tiny},
		// Overflow, and the sum just under the rounding to +Inf.
		{maxf, 2, 0},
		{maxf, 1, maxf},
		{maxf, 1 + ulp, -maxf},
		{0x1p127, 1, 0x1p103},
		{0x1p127, 1, 0x1p102},
		{-maxf, 2, maxf},
		// Infinities and NaNs.
		{inf, 0, 1},
		{inf, 1, -inf},
		{inf, -1, -inf},
		{1, 1, inf},
		{nan, 1, 1},
		{1, 1, nan},
		{0, nan, 0},
	}
}

func TestFMA32(t *testing.T) {
	for _, c := range fmaCases() {
		checkFMA32(t, c[0], c[1], c[2])
	}
}

// FuzzFMA32 holds softFMA32 to the exact rounding, this build's fma32 and,
// where the host has FMA, VFMADD231SS on arbitrary float32 bit patterns.
func FuzzFMA32(f *testing.F) {
	for _, c := range fmaCases() {
		f.Add(math.Float32bits(c[0]), math.Float32bits(c[1]), math.Float32bits(c[2]))
	}
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		checkFMA32(t, math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c))
	})
}
