package quant

import (
	"math"
	"math/rand"
	"testing"

	"ejoin/internal/mat"
)

// FuzzInt8RoundTrip checks the int8 encode→decode error bound on
// arbitrary finite vectors: every element reconstructs within half a
// quantization step (scale/2), and codes stay in the symmetric range.
func FuzzInt8RoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(8), float64(1))
	f.Add(int64(42), uint8(100), float64(0.001))
	f.Add(int64(7), uint8(1), float64(1e6))
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, amp float64) {
		d := int(dim%128) + 1
		if math.IsNaN(amp) || math.IsInf(amp, 0) {
			t.Skip()
		}
		a := math.Abs(amp)
		if a > 1e18 {
			a = 1e18
		}
		rng := rand.New(rand.NewSource(seed))
		m := mat.New(1, d)
		row := m.Row(0)
		for i := range row {
			row[i] = float32(rng.NormFloat64() * a)
		}
		q := EncodeInt8(m)
		for _, c := range q.Row(0) {
			if c < -127 || c > 127 {
				t.Fatalf("code %d outside symmetric range", c)
			}
		}
		back := q.Decode()
		bound := float64(q.Scale(0)) / 2 // half a step
		// Float rounding in scale multiplication adds a relative epsilon.
		bound += float64(q.Scale(0)) * 127 * 1e-6
		for i := range row {
			if diff := math.Abs(float64(row[i] - back.At(0, i))); diff > bound {
				t.Fatalf("element %d: |%v - %v| = %v > bound %v",
					i, row[i], back.At(0, i), diff, bound)
			}
		}
	})
}

// FuzzPQRoundTrip checks product-quantization invariants on randomized
// training sets: training rows reconstruct within M·MaxDistortion squared
// error, arbitrary vectors decode to finite values, and every decode is
// the per-subspace nearest-centroid reconstruction (no other code does
// better).
func FuzzPQRoundTrip(f *testing.F) {
	f.Add(int64(3), uint8(16), uint8(4), uint8(60))
	f.Add(int64(9), uint8(32), uint8(8), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, dim, m, n uint8) {
		d := int(dim%64) + 1
		rows := int(n%200) + 2
		data := randomUnitMatrix(seed, rows, d)
		cb, err := TrainPQ(data, PQConfig{M: int(m%16) + 1, Centroids: 32, KMeansIters: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		codes, err := cb.EncodeAll(data)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float32, d)
		bound := float64(cb.MaxDistortion())*float64(cb.M()) + 1e-5
		for i := 0; i < rows; i++ {
			code := codes[i*cb.M() : (i+1)*cb.M()]
			if err := cb.Decode(code, dst); err != nil {
				t.Fatal(err)
			}
			var sq float64
			for j, x := range data.Row(i) {
				diff := float64(x - dst[j])
				if math.IsNaN(diff) || math.IsInf(diff, 0) {
					t.Fatalf("row %d: non-finite decode", i)
				}
				sq += diff * diff
			}
			if sq > bound {
				t.Fatalf("row %d: squared error %v > M·maxDistortion %v", i, sq, bound)
			}
		}
		// A vector outside the training set decodes to its argmin
		// reconstruction: re-encoding the decode is a fixed point.
		probe := randomUnitMatrix(seed+1, 1, d).Row(0)
		code := make([]byte, cb.M())
		if err := cb.Encode(probe, code); err != nil {
			t.Fatal(err)
		}
		if err := cb.Decode(code, dst); err != nil {
			t.Fatal(err)
		}
		code2 := make([]byte, cb.M())
		if err := cb.Encode(dst, code2); err != nil {
			t.Fatal(err)
		}
		if err := cb.Decode(code2, probe); err != nil {
			t.Fatal(err)
		}
		for j := range dst {
			if dst[j] != probe[j] {
				t.Fatalf("decode not a fixed point at dim %d", j)
			}
		}
	})
}
