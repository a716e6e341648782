package bench

import (
	"context"
	"fmt"
	"io"
	"math"

	"ejoin/internal/core"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// fig11Grid is the (#FP32 ops, dimensionality) grid of Figures 11/12.
// tuples per side = sqrt(ops/dim), as in the paper's Section VI-D walk-
// through. The paper's largest group (256M) is scaled to 25.6M by default.
func fig11Grid(cfg Config) (opsAxis []int64, dims []int) {
	opsAxis = []int64{25_600, 2_560_000, int64(cfg.size(25_600_000))}
	dims = []int{1, 4, 16, 64, 256}
	return
}

func tuplesFor(ops int64, dim int) int {
	n := int(math.Sqrt(float64(ops) / float64(dim)))
	if n < 1 {
		n = 1
	}
	return n
}

// expFig11 regenerates Figure 11: per-FP32-element time of the vectorized
// NLJ versus the tensor formulation across total work and vector
// dimensionality. Tensor pays off once there is enough work to amortize
// blocking; NLJ wins only on tiny inputs.
func expFig11() Experiment {
	return Experiment{
		Name:        "fig11",
		Paper:       "Figure 11",
		Description: "Per-element time: Vectorize-NLJ vs Tensor across (#FP32 ops, dimensionality).",
		Run: func(w io.Writer, cfg Config) error {
			ctx := context.Background()
			opsAxis, dims := fig11Grid(cfg)
			t := newTable("#FP32 Ops", "Vector #FP32", "Tuples/side", "NLJ [ns/elem]", "Tensor [ns/elem]", "Tensor speedup")
			for _, ops := range opsAxis {
				for _, dim := range dims {
					n := tuplesFor(ops, dim)
					left := workload.Vectors(cfg.Seed, n, dim)
					right := workload.Vectors(cfg.Seed+1, n, dim)
					elems := int64(n) * int64(n) * int64(dim)

					dN, err := timed(func() error {
						_, err := core.NLJ(ctx, left, right, 0.8, core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads()})
						return err
					})
					if err != nil {
						return err
					}
					dT, err := timed(func() error {
						_, err := core.TensorJoin(ctx, left, right, 0.8, core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads()})
						return err
					})
					if err != nil {
						return err
					}
					t.addRow(fmt.Sprintf("%d", ops), fmt.Sprintf("%d", dim), fmt.Sprintf("%d", n),
						nsPerElem(dN, elems), nsPerElem(dT, elems),
						ratio(float64(dN.Nanoseconds()), float64(dT.Nanoseconds())))
				}
			}
			t.print(w)
			fmt.Fprintln(w, "\nShape check: tensor wins at scale; with only a handful of tuples (large dim, small ops) NLJ is competitive or better.")
			return nil
		},
	}
}

// expFig12 regenerates Figure 12: fully batched tensor join versus the
// non-batched variant that streams one side vector-by-vector.
func expFig12() Experiment {
	return Experiment{
		Name:        "fig12",
		Paper:       "Figure 12",
		Description: "Impact of vector batching: Tensor-Fully-Batched vs Tensor-Non-Batched (one input processed one vector at a time).",
		Run: func(w io.Writer, cfg Config) error {
			ctx := context.Background()
			opsAxis, dims := fig11Grid(cfg)
			t := newTable("#FP32 Ops", "Vector #FP32", "Batched [ns/elem]", "Non-Batched [ns/elem]", "Batched speedup")
			for _, ops := range opsAxis {
				for _, dim := range dims {
					n := tuplesFor(ops, dim)
					left := workload.Vectors(cfg.Seed, n, dim)
					right := workload.Vectors(cfg.Seed+1, n, dim)
					elems := int64(n) * int64(n) * int64(dim)

					dB, err := timed(func() error {
						_, err := core.TensorJoinBatched(ctx, left, right, 0.8, core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads()})
						return err
					})
					if err != nil {
						return err
					}
					dNB, err := timed(func() error {
						// One right vector at a time: every right tuple pays a full pass.
						_, err := core.TensorJoinBatched(ctx, left, right, 0.8, core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads(), BatchRows: n, BatchCols: 1})
						return err
					})
					if err != nil {
						return err
					}
					t.addRow(fmt.Sprintf("%d", ops), fmt.Sprintf("%d", dim),
						nsPerElem(dB, elems), nsPerElem(dNB, elems),
						ratio(float64(dNB.Nanoseconds()), float64(dB.Nanoseconds())))
				}
			}
			t.print(w)
			fmt.Fprintln(w, "\nShape check: batching matters more as input grows; negligible on tiny inputs.")
			return nil
		},
	}
}

// expFig13 regenerates Figure 13: mini-batch size versus relative slowdown
// and relative reduction of required intermediate memory (the Figure 7
// trade-off).
func expFig13() Experiment {
	return Experiment{
		Name:        "fig13",
		Paper:       "Figure 13",
		Description: "Mini-batch size impact on memory requirements and execution time, relative to the unbatched join.",
		Run: func(w io.Writer, cfg Config) error {
			ctx := context.Background()
			n := cfg.size(8000)
			left := workload.Vectors(cfg.Seed, n, 100)
			right := workload.Vectors(cfg.Seed+1, n, 100)
			opts := core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads()}

			baseRes, err := core.TensorJoinBatched(ctx, left, right, 0.8, opts)
			if err != nil {
				return err
			}
			dBase, err := timed(func() error {
				_, err := core.TensorJoinBatched(ctx, left, right, 0.8, opts)
				return err
			})
			if err != nil {
				return err
			}
			baseBytes := baseRes.Stats.PeakIntermediateBytes

			t := newTable("Mini-Batch", "Time [ms]", "Relative slowdown", "Peak intermediate", "RAM reduction")
			t.addRow(fmt.Sprintf("No Batch (%dx%d)", n, n), ms(dBase), "1.00x", fmtBytes(baseBytes), "1.00x")
			for _, frac := range []int{2, 4, 8, 16} {
				b := n / frac
				bOpts := opts
				bOpts.BatchRows, bOpts.BatchCols = b, b
				res, err := core.TensorJoinBatched(ctx, left, right, 0.8, bOpts)
				if err != nil {
					return err
				}
				d, err := timed(func() error {
					_, err := core.TensorJoinBatched(ctx, left, right, 0.8, bOpts)
					return err
				})
				if err != nil {
					return err
				}
				if len(res.Matches) != len(baseRes.Matches) {
					return fmt.Errorf("fig13: batched result differs: %d vs %d matches", len(res.Matches), len(baseRes.Matches))
				}
				t.addRow(fmt.Sprintf("%dx%d", b, b), ms(d),
					ratio(float64(d.Microseconds()), float64(dBase.Microseconds())),
					fmtBytes(res.Stats.PeakIntermediateBytes),
					ratio(float64(baseBytes), float64(res.Stats.PeakIntermediateBytes)))
			}
			t.print(w)
			fmt.Fprintln(w, "\nShape check: memory drops quadratically with batch size at a modest slowdown.")
			return nil
		},
	}
}

// expFig14 regenerates Figure 14: tensor join versus optimized NLJ
// end-to-end across input sizes (paper: up to 1Mx1M with NLJ timing out).
func expFig14() Experiment {
	return Experiment{
		Name:        "fig14",
		Paper:       "Figure 14",
		Description: "Tensor join vs NLJ formulation end-to-end, 100-D vectors.",
		Run: func(w io.Writer, cfg Config) error {
			ctx := context.Background()
			shapes := []struct{ nr, ns int }{
				{cfg.size(1000), cfg.size(1000)},
				{cfg.size(10000), cfg.size(1000)},
				{cfg.size(10000), cfg.size(10000)},
				{cfg.size(40000), cfg.size(10000)},
			}
			t := newTable("|R| x |S|", "Tensor [ms]", "NLJ [ms]", "Tensor speedup")
			for _, sh := range shapes {
				left := workload.Vectors(cfg.Seed, sh.nr, 100)
				right := workload.Vectors(cfg.Seed+1, sh.ns, 100)
				opts := core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads()}
				dT, err := timed(func() error {
					_, err := core.TensorJoin(ctx, left, right, 0.8, opts)
					return err
				})
				if err != nil {
					return err
				}
				dN, err := timed(func() error {
					_, err := core.NLJ(ctx, left, right, 0.8, opts)
					return err
				})
				if err != nil {
					return err
				}
				t.addRow(fmt.Sprintf("%dx%d", sh.nr, sh.ns), ms(dT), ms(dN),
					ratio(float64(dN.Nanoseconds()), float64(dT.Nanoseconds())))
			}
			t.print(w)
			fmt.Fprintln(w, "\nShape check: both scale ~linearly in pair count; tensor holds a consistent multiple (paper: close to an order of magnitude with MKL).")
			return nil
		},
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
