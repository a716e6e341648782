package mat

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

// BenchmarkScanAbove times the scan on the serving shape, 1024 x 1024
// unit-norm rows of 100 with 300 planted near neighbours (plantedRows),
// one thread, on each tile form the host has (YMM, ZMM, and ZMM behind
// the int8 filter):
//   - threshold: a bound of 0.8, which only the planted pairs reach, in
//     ~4 % of the 4x32 tiles, as on the served tables; most tiles stop
//     well before k = d or are ruled out by the int8 filter;
//   - topk3: every row starts at -Inf and its visitor raises the row's
//     bound to its 3rd best, as core.TensorTopK's scan path does;
//   - everycell: a bound of -Inf, which every cell reaches, so no tile
//     can stop, every tile is stored and the visitor runs 1 M times an
//     op: the checkpoints are pure cost here, but far from the only one.
//
// ns/pair is per compared pair, skipped the share of k-steps not run,
// a tile the int8 filter rules out counting in full.
func BenchmarkScanAbove(b *testing.B) {
	r, s := plantedRows(1024, 100, 300)
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

// plantedRows returns two n x d matrices of random unit rows in which
// pairs random pairs (i, j) are near neighbours, s_j a unit row within
// cosine ~0.86-0.96 of r_i, the rest unrelated: what a join of served
// tables sees, a few high cells among many low ones.
func plantedRows(n, d, pairs int) (r, s *Matrix) {
	rng := rand.New(rand.NewSource(1))
	r, s = randomMatrix(rng, n, d), randomMatrix(rng, n, d)
	r.NormalizeRows()
	s.NormalizeRows()
	for range pairs {
		ri, sj := r.Row(rng.Intn(n)), s.Row(rng.Intn(n))
		eps := float32(0.3 + 0.3*rng.Float64())
		for k := range sj {
			sj[k] = ri[k] + eps*sj[k]
		}
		vec.Normalize(sj)
	}
	return r, s
}
