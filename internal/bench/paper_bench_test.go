package bench

// One testing.B benchmark per table/figure of the paper's evaluation, at
// sizes suited to `go test -bench=.`. The paper-shaped sweeps with full
// axes are the experiments in this package (cmd/ejbench runs them; README,
// "Benchmarks"); these benchmarks are the per-commit regression net over
// the same code paths. CI runs each once:
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/bench/

import (
	"context"
	"fmt"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/hnsw"
	"ejoin/internal/model"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// BenchmarkTable2SemanticTopK regenerates Table II's lookup: top-15
// semantic matches over the vocabulary.
func BenchmarkTable2SemanticTopK(b *testing.B) {
	vocab, _ := workload.TableIIVocabulary()
	m, err := workload.TableIIModel(100)
	if err != nil {
		b.Fatal(err)
	}
	lookup, err := model.BuildLookupTable(m, vocab)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float32, len(workload.TableIIWords))
	for i, w := range workload.TableIIWords {
		queries[i], err = m.Embed(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			lookup.TopK(q, 15)
		}
	}
}

// BenchmarkFig8PrefetchSIMD covers Figure 8's four variants: naive vs
// prefetch crossed with scalar vs SIMD kernels.
func BenchmarkFig8PrefetchSIMD(b *testing.B) {
	m, err := model.NewHashEmbedder(100)
	if err != nil {
		b.Fatal(err)
	}
	left := workload.Strings(1, 60, nil)
	right := workload.Strings(2, 60, nil)
	ctx := context.Background()
	for _, variant := range []struct {
		name     string
		prefetch bool
		kernel   vec.Kernel
	}{
		{"Naive/NO-SIMD", false, vec.KernelScalar},
		{"Naive/SIMD", false, vec.KernelSIMD},
		{"Prefetch/NO-SIMD", true, vec.KernelScalar},
		{"Prefetch/SIMD", true, vec.KernelSIMD},
	} {
		b.Run(variant.name, func(b *testing.B) {
			opts := core.Options{Kernel: variant.kernel}
			for i := 0; i < b.N; i++ {
				var err error
				if variant.prefetch {
					_, err = core.PrefetchNLJ(ctx, m, left, right, 0.8, opts)
				} else {
					_, err = core.NaiveNLJ(ctx, m, left, right, 0.8, opts)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Scalability sweeps worker threads over the optimized NLJ.
func BenchmarkFig9Scalability(b *testing.B) {
	left := workload.Vectors(1, 1000, 100)
	right := workload.Vectors(2, 1000, 100)
	ctx := context.Background()
	for _, threads := range []int{1, 2, 4} {
		for _, k := range []vec.Kernel{vec.KernelSIMD, vec.KernelScalar} {
			b.Run(fmt.Sprintf("threads=%d/%s", threads, k), func(b *testing.B) {
				opts := core.Options{Kernel: k, Threads: threads}
				for i := 0; i < b.N; i++ {
					if _, err := core.NLJ(ctx, left, right, 0.8, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10InputSizes covers Figure 10's shape axis, including the
// inner-relation-ordering pair.
func BenchmarkFig10InputSizes(b *testing.B) {
	ctx := context.Background()
	for _, sh := range []struct{ nr, ns int }{
		{1000, 1000}, {4000, 250}, {250, 4000},
	} {
		b.Run(fmt.Sprintf("%dx%d", sh.nr, sh.ns), func(b *testing.B) {
			left := workload.Vectors(1, sh.nr, 100)
			right := workload.Vectors(2, sh.ns, 100)
			opts := core.Options{Kernel: vec.KernelSIMD}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NLJ(ctx, left, right, 0.8, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11TensorVsNLJ compares the two formulations across the
// dimensionality axis of Figure 11.
func BenchmarkFig11TensorVsNLJ(b *testing.B) {
	ctx := context.Background()
	for _, dim := range []int{4, 64, 256} {
		n := 512
		left := workload.Vectors(1, n, dim)
		right := workload.Vectors(2, n, dim)
		opts := core.Options{Kernel: vec.KernelSIMD}
		b.Run(fmt.Sprintf("NLJ/dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NLJ(ctx, left, right, 0.8, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Tensor/dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.TensorJoin(ctx, left, right, 0.8, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12Batching compares fully batched vs one-vector-at-a-time
// tensor execution.
func BenchmarkFig12Batching(b *testing.B) {
	ctx := context.Background()
	left := workload.Vectors(1, 1000, 100)
	right := workload.Vectors(2, 1000, 100)
	opts := core.Options{Kernel: vec.KernelSIMD}
	b.Run("FullyBatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.TensorJoinBatched(ctx, left, right, 0.8, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NonBatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nb := opts
			nb.BatchRows, nb.BatchCols = left.Rows(), 1
			if _, err := core.TensorJoinBatched(ctx, left, right, 0.8, nb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig13BatchMemory sweeps mini-batch sizes; b.ReportMetric carries
// the peak intermediate footprint each shape required.
func BenchmarkFig13BatchMemory(b *testing.B) {
	ctx := context.Background()
	n := 2000
	left := workload.Vectors(1, n, 100)
	right := workload.Vectors(2, n, 100)
	for _, batch := range []int{0, n / 2, n / 4, n / 8} {
		name := "NoBatch"
		if batch > 0 {
			name = fmt.Sprintf("batch=%d", batch)
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{Kernel: vec.KernelSIMD, BatchRows: batch, BatchCols: batch}
			var peak int64
			for i := 0; i < b.N; i++ {
				res, err := core.TensorJoinBatched(ctx, left, right, 0.8, opts)
				if err != nil {
					b.Fatal(err)
				}
				peak = res.Stats.PeakIntermediateBytes
			}
			b.ReportMetric(float64(peak), "peak-bytes")
		})
	}
}

// BenchmarkFig14TensorVsNLJEndToEnd is the end-to-end comparison of
// Figure 14 at bench scale.
func BenchmarkFig14TensorVsNLJEndToEnd(b *testing.B) {
	ctx := context.Background()
	for _, sh := range []struct{ nr, ns int }{{1000, 1000}, {4000, 1000}} {
		left := workload.Vectors(1, sh.nr, 100)
		right := workload.Vectors(2, sh.ns, 100)
		opts := core.Options{Kernel: vec.KernelSIMD}
		b.Run(fmt.Sprintf("Tensor/%dx%d", sh.nr, sh.ns), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.TensorJoin(ctx, left, right, 0.8, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("NLJ/%dx%d", sh.nr, sh.ns), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NLJ(ctx, left, right, 0.8, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scanVsProbeBench shares the Figures 15/16/17 setup: clustered vectors,
// selectivity-controlled attribute, Hi/Lo HNSW indexes.
func scanVsProbeBench(b *testing.B, k int, rangeSim float32) {
	const (
		nl, nr, dim = 64, 4000, 32
		attrCard    = 1000
	)
	ctx := context.Background()
	left := workload.CorrelatedVectors(1, nl, dim, 16, 0.25)
	right := workload.CorrelatedVectors(2, nr, dim, 16, 0.25)
	attr := workload.UniformIntColumn(3, nr, attrCard)
	lo, err := core.BuildIndex(right, hnsw.Config{M: 8, EfConstruction: 64, EfSearch: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Kernel: vec.KernelSIMD}

	for _, selPct := range []int{10, 50, 100} {
		bm := workload.SelectivityBitmap(attr, attrCard, float64(selPct)/100)
		sel := bm.ToSelection()
		// Gather the filtered right side once per selectivity.
		fm := workload.Vectors(9, len(sel), dim)
		for i, r := range sel {
			copy(fm.Row(i), right.Row(r))
		}
		b.Run(fmt.Sprintf("Scan/sel=%d", selPct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if rangeSim > -1 {
					_, err = core.TensorJoin(ctx, left, fm, rangeSim, opts)
				} else {
					_, err = core.TensorTopK(ctx, left, fm, k, opts)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("IndexLo/sel=%d", selPct), func(b *testing.B) {
			cond := core.IndexJoinCondition{K: k, MinSim: -2}
			if rangeSim > -1 {
				cond = core.IndexJoinCondition{K: 32, MinSim: rangeSim}
			}
			pOpts := opts
			pOpts.RightFilter = bm
			for i := 0; i < b.N; i++ {
				if _, err := core.IndexJoin(ctx, left, lo, cond, pOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15ScanVsProbeTop1 is Figure 15 (top-1 condition).
func BenchmarkFig15ScanVsProbeTop1(b *testing.B) { scanVsProbeBench(b, 1, -2) }

// BenchmarkFig16ScanVsProbeTop32 is Figure 16 (top-32 condition).
func BenchmarkFig16ScanVsProbeTop32(b *testing.B) { scanVsProbeBench(b, 32, -2) }

// BenchmarkFig17RangeJoin is Figure 17 (similarity > 0.9 range condition).
func BenchmarkFig17RangeJoin(b *testing.B) { scanVsProbeBench(b, 32, 0.9) }

// BenchmarkCostModelCalls pins the Section IV-A claim in a benchmark:
// naive joins pay the model per pair, prefetch per tuple.
func BenchmarkCostModelCalls(b *testing.B) {
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		b.Fatal(err)
	}
	left := workload.Strings(1, 40, nil)
	right := workload.Strings(2, 40, nil)
	ctx := context.Background()
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NaiveNLJ(ctx, m, left, right, 0.8, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Prefetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PrefetchNLJ(ctx, m, left, right, 0.8, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
