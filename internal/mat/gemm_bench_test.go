package mat

import (
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

func benchMatrices(n, d int) (*Matrix, *Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	r := randomMatrix(rng, n, d)
	s := randomMatrix(rng, n, d)
	return r, s, New(n, n)
}

// BenchmarkGemmSIMDKernel times the stored-tile GEMM, 1024 x 1024 x 100
// on one thread, on each tile width the host has.
func BenchmarkGemmSIMDKernel(b *testing.B) {
	r, s, dst := benchMatrices(1024, 100)
	opts := GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}
	eachWidth(b, func(b *testing.B) {
		for b.Loop() {
			if err := MulTransposeInto(dst, r, s, opts); err != nil {
				b.Fatal(err)
			}
		}
		// One multiply and one add per (row pair, dimension).
		b.ReportMetric(2*1024*1024*100*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

func BenchmarkGemmScalarKernel(b *testing.B) {
	r, s, dst := benchMatrices(1024, 100)
	opts := GemmOptions{Threads: 1, Kernel: vec.KernelScalar}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MulTransposeInto(dst, r, s, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowDotBaseline is the tuple-at-a-time comparison point: the
// NLJ's inner kernel over the same data.
func BenchmarkRowDotBaseline(b *testing.B) {
	r, s, dst := benchMatrices(1024, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := 0; x < r.Rows(); x++ {
			rx := r.Row(x)
			drow := dst.Row(x)
			for y := 0; y < s.Rows(); y++ {
				drow[y] = vec.Dot(vec.KernelSIMD, rx, s.Row(y))
			}
		}
	}
}
