package mat

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

// BenchmarkScanAbove brackets the early exit on the serving shape, 1024 x
// 1024 unit-norm rows of 100: a threshold most tiles can rule out well
// before k = d, and a bound of -Inf, under which no tile can stop and the
// checkpoints are pure cost.
func BenchmarkScanAbove(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r, s := randomMatrix(rng, 1024, 100), randomMatrix(rng, 1024, 100)
	r.NormalizeRows()
	s.NormalizeRows()
	for _, bc := range []struct {
		name  string
		bound float32
	}{{"threshold", 0.8}, {"noprune", float32(math.Inf(-1))}} {
		b.Run(bc.name, func(b *testing.B) {
			bound := make([]float32, r.Rows())
			for i := range bound {
				bound[i] = bc.bound
			}
			var cells int
			visit := func() ScanVisitor { return func(int, int, float32) { cells++ } }
			var st ScanStats
			for b.Loop() {
				var err error
				if st, err = ScanAbove(context.Background(), r, s, bound, GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}, visit); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Rows()*s.Rows()), "ns/pair")
			b.ReportMetric(float64(st.KStepsSkipped)/float64(st.KSteps), "skipped")
		})
	}
}
