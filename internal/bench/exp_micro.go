package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ejoin/internal/core"
	"ejoin/internal/hnsw"
	"ejoin/internal/model"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// expTable1 regenerates Table I: the qualitative scan-vs-index contrast,
// grounded with a measured exemplar (exactness and probe sub-linearity).
func expTable1() Experiment {
	return Experiment{
		Name:        "table1",
		Paper:       "Table I",
		Description: "Index versus scan-based vector join operator: qualitative contrast + measured accuracy/cost evidence.",
		Run: func(w io.Writer, cfg Config) error {
			t := newTable("", "Scan Join", "Index Join")
			t.addRow("Accuracy", "Exact", "Approximate")
			t.addRow("Filtering", "Full Relational", "Vector Similarity & Pre-Filtering")
			t.addRow("Cost", "Compute & Scan", "Build & Compute & Probe")
			t.addRow("Flexibility", "Any Expression", "Limited, Construction-Time Distance")
			t.print(w)

			// Measured evidence on a small instance.
			n := cfg.size(2000)
			dim := 32
			right := workload.Vectors(cfg.Seed, n, dim)
			left := workload.Vectors(cfg.Seed+1, cfg.size(50), dim)
			idx, err := core.BuildIndex(right, hnsw.Config{M: 8, EfConstruction: 64, EfSearch: 32, Seed: cfg.Seed})
			if err != nil {
				return err
			}
			ctx := context.Background()
			opts := core.Options{Kernel: vec.DefaultKernel(), Threads: cfg.threads()}
			exact, err := core.TensorTopK(ctx, left, right, 5, opts)
			if err != nil {
				return err
			}
			before := idx.DistanceCalls()
			approx, err := core.IndexJoin(ctx, left, idx, core.IndexJoinCondition{K: 5, MinSim: -2}, opts)
			if err != nil {
				return err
			}
			probeCost := idx.DistanceCalls() - before
			exactSet := map[[2]int]bool{}
			for _, m := range exact.Matches {
				exactSet[[2]int{m.Left, m.Right}] = true
			}
			hits := 0
			for _, m := range approx.Matches {
				if exactSet[[2]int{m.Left, m.Right}] {
					hits++
				}
			}
			fmt.Fprintf(w, "\nMeasured (|S|=%d, top-5): scan comparisons/probe=%d (exact), index comparisons/probe=%d (recall=%.2f)\n",
				n, n, probeCost/int64(left.Rows()), float64(hits)/float64(len(exact.Matches)))
			return nil
		},
	}
}

// expTable2 regenerates Table II: semantic top-15 matches for the sample
// words under the FastText stand-in.
func expTable2() Experiment {
	return Experiment{
		Name:        "table2",
		Paper:       "Table II",
		Description: "Semantic matching: top-15 vocabulary neighbors of sample words (dbms, postgres, clothes) under the embedding model.",
		Run: func(w io.Writer, cfg Config) error {
			vocab, _ := workload.TableIIVocabulary()
			m, err := workload.TableIIModel(100)
			if err != nil {
				return err
			}
			lookup, err := model.BuildLookupTable(m, vocab)
			if err != nil {
				return err
			}
			t := newTable("Word", "Top-15 Model Matches")
			for _, q := range workload.TableIIWords {
				e, err := m.Embed(q)
				if err != nil {
					return err
				}
				top := lookup.TopK(e, 16)
				var names []string
				for _, s := range top {
					wrd, _ := lookup.Decode(s.ID)
					if wrd == q {
						continue // the query itself
					}
					names = append(names, wrd)
					if len(names) == 15 {
						break
					}
				}
				t.addRow(q, strings.Join(names, ", "))
			}
			t.print(w)
			return nil
		},
	}
}

// expCostModel validates Section IV-A empirically: measured model-call
// counts for naive vs prefetch joins against the cost model's predictions.
func expCostModel() Experiment {
	return Experiment{
		Name:        "costmodel",
		Paper:       "Section IV-A",
		Description: "Cost model validation: measured model invocations of naive (|R||S| pairs, 2 calls each) vs prefetch (|R|+|S|) joins.",
		Run: func(w io.Writer, cfg Config) error {
			inner, err := model.NewHashEmbedder(32)
			if err != nil {
				return err
			}
			counted := model.NewCountingModel(inner)
			nr, ns := cfg.size(40), cfg.size(60)
			left := workload.Strings(cfg.Seed, nr, nil)
			right := workload.Strings(cfg.Seed+1, ns, nil)
			ctx := context.Background()

			t := newTable("Join", "Predicted model calls", "Measured", "Matches")
			counted.Reset()
			resN, err := core.NaiveNLJ(ctx, counted, left, right, 0.8, core.Options{Kernel: vec.DefaultKernel()})
			if err != nil {
				return err
			}
			t.addRow("Naive E-NLJ", fmt.Sprintf("2*|R|*|S| = %d", 2*nr*ns),
				fmt.Sprintf("%d", counted.Calls()), fmt.Sprintf("%d", len(resN.Matches)))

			counted.Reset()
			resP, err := core.PrefetchNLJ(ctx, counted, left, right, 0.8, core.Options{Kernel: vec.DefaultKernel(), Threads: cfg.threads()})
			if err != nil {
				return err
			}
			t.addRow("Prefetch E-NLJ", fmt.Sprintf("|R|+|S| = %d", nr+ns),
				fmt.Sprintf("%d", counted.Calls()), fmt.Sprintf("%d", len(resP.Matches)))
			t.print(w)

			if len(resN.Matches) != len(resP.Matches) {
				return fmt.Errorf("result mismatch: naive %d vs prefetch %d", len(resN.Matches), len(resP.Matches))
			}
			fmt.Fprintf(w, "\nResults identical (%d matches); only the model-access pattern differs.\n", len(resN.Matches))
			return nil
		},
	}
}
