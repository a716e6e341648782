package quant

import (
	"math"
	"testing"

	"ejoin/internal/vec"
)

func TestPQTrainEncodeDecode(t *testing.T) {
	data := randomUnitMatrix(11, 400, 32)
	cb, err := TrainPQ(data, PQConfig{M: 8, Centroids: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cb.M() != 8 || cb.K() != 64 || cb.Dim() != 32 {
		t.Fatalf("codebook shape M=%d K=%d dim=%d", cb.M(), cb.K(), cb.Dim())
	}
	codes, err := cb.EncodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != data.Rows()*cb.M() {
		t.Fatalf("code bytes %d, want %d", len(codes), data.Rows()*cb.M())
	}
	// Training rows reconstruct within the recorded worst distortion:
	// per-subspace squared error ≤ MaxDistortion, so the full-vector
	// squared error is ≤ M · MaxDistortion.
	dst := make([]float32, cb.Dim())
	bound := float64(cb.MaxDistortion())*float64(cb.M()) + 1e-6
	for i := 0; i < data.Rows(); i++ {
		if err := cb.Decode(codes[i*cb.M():(i+1)*cb.M()], dst); err != nil {
			t.Fatal(err)
		}
		var sq float64
		for j, x := range data.Row(i) {
			d := float64(x - dst[j])
			sq += d * d
		}
		if sq > bound {
			t.Fatalf("row %d: squared reconstruction error %v > bound %v", i, sq, bound)
		}
	}
}

// TestPQDecodeIsArgmin: the decoded vector uses, per subspace, the
// centroid closest to the input — no other code has smaller distortion.
func TestPQDecodeIsArgmin(t *testing.T) {
	data := randomUnitMatrix(13, 200, 16)
	cb, err := TrainPQ(data, PQConfig{M: 4, Centroids: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	probe := randomUnitMatrix(17, 20, 16) // not in the training set
	code := make([]byte, cb.M())
	for i := 0; i < probe.Rows(); i++ {
		v := probe.Row(i)
		if err := cb.Encode(v, code); err != nil {
			t.Fatal(err)
		}
		for mi := 0; mi < cb.M(); mi++ {
			sv := v[mi*cb.sub : (mi+1)*cb.sub]
			_, chosen := centroidDist(cb, mi, int(code[mi]), sv)
			for c := 0; c < cb.K(); c++ {
				if _, d := centroidDist(cb, mi, c, sv); d < chosen-1e-6 {
					t.Fatalf("row %d subspace %d: code %d (dist %v) not argmin (centroid %d dist %v)",
						i, mi, code[mi], chosen, c, d)
				}
			}
		}
	}
}

func centroidDist(cb *Codebook, mi, c int, sv []float32) (int, float32) {
	cent := cb.subspace(mi)[c*cb.sub : (c+1)*cb.sub]
	var d float32
	for j, x := range sv {
		diff := x - cent[j]
		d += diff * diff
	}
	return c, d
}

// TestPQADCMatchesDecodedDot: the lookup-table score equals the dot
// product of the query with the decoded vector (that is what ADC computes
// without materializing the decode).
func TestPQADCMatchesDecodedDot(t *testing.T) {
	data := randomUnitMatrix(19, 300, 24)
	cb, err := TrainPQ(data, PQConfig{M: 6, Centroids: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	codes, err := cb.EncodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	q := randomUnitMatrix(23, 1, 24).Row(0)
	tab := make([]float32, cb.ADCTableSize())
	if err := cb.ADCTable(q, tab); err != nil {
		t.Fatal(err)
	}
	dec := make([]float32, cb.Dim())
	for i := 0; i < data.Rows(); i++ {
		code := codes[i*cb.M() : (i+1)*cb.M()]
		if err := cb.Decode(code, dec); err != nil {
			t.Fatal(err)
		}
		want := vec.Dot(vec.KernelScalar, q, dec)
		got := ADCScore(tab, cb.K(), code)
		if math.Abs(float64(want-got)) > 1e-4 {
			t.Fatalf("row %d: adc %v != decoded dot %v", i, got, want)
		}
	}
}

func TestPQConfigAdjustment(t *testing.T) {
	data := randomUnitMatrix(29, 40, 30) // 30 not divisible by default M=8
	cb, err := TrainPQ(data, PQConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cb.M() != 6 { // largest divisor of 30 that is <= 8
		t.Fatalf("M adjusted to %d, want 6", cb.M())
	}
	if cb.K() != 40 { // clamped to training-set size
		t.Fatalf("K clamped to %d, want 40", cb.K())
	}
	if _, err := TrainPQ(randomUnitMatrix(1, 0, 8).Slice(0, 0), PQConfig{}); err == nil {
		t.Fatal("expected error training over empty input")
	}
}
