package mat

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

// BenchmarkScanAbove times the scan on the serving shape, 1024 x 1024
// unit-norm rows of 100, one thread, on each tile form the host has
// (YMM, ZMM, and ZMM behind the int8 filter):
//   - threshold: a bound of 0.8, which most tiles rule out well before
//     k = d, as core.TensorJoin's are (random rows of 100 reach it
//     nowhere, so here the int8 filter rules out every tile);
//   - topk3: every row starts at -Inf and its visitor raises the row's
//     bound to its 3rd best, as core.TensorTopK does;
//   - everycell: a bound of -Inf, which every cell reaches, so no tile
//     can stop, every tile is stored and the visitor runs 1 M times an
//     op: the checkpoints are pure cost here, but far from the only one.
//
// ns/pair is per compared pair, skipped the share of k-steps not run,
// a tile the int8 filter rules out counting in full.
func BenchmarkScanAbove(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r, s := randomMatrix(rng, 1024, 100), randomMatrix(rng, 1024, 100)
	r.NormalizeRows()
	s.NormalizeRows()
	bound := make([]float32, r.Rows())
	fixed := func(v float32) func() ScanVisitor {
		return func() ScanVisitor {
			for i := range bound {
				bound[i] = v
			}
			return func(int, int, float32) {}
		}
	}
	top := topK{k: 3, rows: make([][]cell, r.Rows())}
	for _, bc := range []struct {
		name    string
		visitor func() ScanVisitor // resets bound, then returns the visitor
	}{
		{"threshold", fixed(0.8)},
		{"topk3", func() ScanVisitor {
			for i := range bound {
				bound[i] = float32(math.Inf(-1))
				top.rows[i] = top.rows[i][:0]
			}
			return top.raise(bound)
		}},
		{"everycell", fixed(float32(math.Inf(-1)))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eachWidth(b, func(b *testing.B) {
				var st ScanStats
				for b.Loop() {
					var err error
					if st, err = ScanAbove(context.Background(), r, s, bound, GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}, bc.visitor); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Rows()*s.Rows()), "ns/pair")
				b.ReportMetric(float64(st.KStepsSkipped)/float64(st.KSteps), "skipped")
			})
		})
	}
}
