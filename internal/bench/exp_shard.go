package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ejoin/internal/model"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/shard"
	"ejoin/internal/workload"
)

// shardBackend is what the experiment drives: a single engine or a
// shard router, both behind the same ingest/query surface.
type shardBackend interface {
	RegisterCSVWithPrecision(name string, schema relational.Schema, r io.Reader, replace bool, prec quant.Precision) (int, error)
	Query(ctx context.Context, req service.QueryRequest) (*service.QueryResult, error)
	Close() error
}

// shardConfigResult is one deployment shape's measurement.
type shardConfigResult struct {
	Label           string  `json:"label"`
	Shards          int     `json:"shards"`
	Partitioner     string  `json:"partitioner,omitempty"`
	ColdQPS         float64 `json:"cold_qps"`
	WarmQPS         float64 `json:"warm_qps"`
	WarmP95Ms       float64 `json:"warm_p95_ms"`
	WarmModelCalls  int64   `json:"warm_model_calls"`
	PartitionSkew   float64 `json:"partition_skew,omitempty"`
	MatchesPerQuery int     `json:"matches_per_query"`
}

// shardReport is the machine-readable result, written to BENCH_shard.json.
type shardReport struct {
	Clients     int `json:"clients"`
	RowsPerSide int `json:"rows_per_side"`
	// GOMAXPROCS contextualizes the speedup: fan-out buys warm throughput
	// only when there are cores to scatter across; on a single-core host
	// the overhead makes the ratio land below 1 by construction.
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Uniform    []shardConfigResult `json:"uniform"`
	// Skewed re-runs the sharded shapes on a Zipf-duplicated corpus: the
	// partition-skew sensitivity series (duplicate keys co-locate, so
	// per-shard row counts diverge and the slowest shard gates the merge).
	Skewed []shardConfigResult `json:"skewed"`
	// WarmSpeedupN4 is warm sharded (hash, N=4) QPS over unsharded.
	WarmSpeedupN4 float64 `json:"warm_qps_n4_over_unsharded"`
}

// expShard measures scatter-gather sharding: QPS and p95 vs shard count
// on a uniform corpus, then partition-skew sensitivity on a Zipf-
// duplicated corpus. Every shape must return the identical match set —
// sharding is an execution choice, never a result change.
func expShard() Experiment {
	return Experiment{
		Name:        "shard",
		Paper:       "Sharding (new)",
		Description: "In-process shard router vs a single engine: QPS/p95 by shard count and partitioner, uniform and skewed corpora.",
		Run: func(w io.Writer, cfg Config) error {
			const clients = 8
			perClient := 10
			if cfg.Quick {
				perClient = 3
			}
			rows := cfg.size(240)

			uniformL := workload.Strings(cfg.Seed, rows, nil)
			uniformR := workload.Strings(cfg.Seed+1, rows, nil)
			// Skewed corpus: draw rows Zipf-style from a small vocabulary so
			// duplicate keys pile onto whichever shard owns them.
			vocab := workload.Strings(cfg.Seed+2, 32, nil)
			skewedL := make([]string, rows)
			skewedR := make([]string, rows)
			for i, z := range workload.Zipf(cfg.Seed+3, rows, uint64(len(vocab)), 1.4) {
				skewedL[i] = vocab[z]
			}
			for i, z := range workload.Zipf(cfg.Seed+4, rows, uint64(len(vocab)), 1.4) {
				skewedR[i] = vocab[z]
			}

			queries := []string{
				"SELECT * FROM left JOIN right ON SIM(left.text, right.text) >= 0.80",
				"SELECT * FROM left JOIN right ON SIM(left.text, right.text) >= 0.85",
				"SELECT * FROM left JOIN right ON TOPK(left.text, right.text, 3)",
			}
			canonical := queries[0]

			phase := func(b shardBackend, counting *model.CountingModel) (float64, float64, int64, error) {
				counting.Reset()
				latencies := make([][]time.Duration, clients)
				var wg sync.WaitGroup
				errs := make(chan error, clients)
				start := time.Now()
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := 0; i < perClient; i++ {
							q := queries[(c+i)%len(queries)]
							t0 := time.Now()
							if _, err := b.Query(context.Background(), service.QueryRequest{SQL: q}); err != nil {
								errs <- err
								return
							}
							latencies[c] = append(latencies[c], time.Since(t0))
						}
					}(c)
				}
				wg.Wait()
				wall := time.Since(start)
				close(errs)
				for err := range errs {
					return 0, 0, 0, err
				}
				var all []time.Duration
				for _, l := range latencies {
					all = append(all, l...)
				}
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				return float64(len(all)) / wall.Seconds(), pctMs(all, 0.95), counting.Calls(), nil
			}

			csvFor := func(vals []string) string {
				var sb strings.Builder
				sb.WriteString("text\n")
				for _, v := range vals {
					sb.WriteString(v)
					sb.WriteByte('\n')
				}
				return sb.String()
			}
			schema := relational.Schema{{Name: "text", Type: relational.String}}

			run := func(label string, shards int, part string, left, right []string) (shardConfigResult, error) {
				base, err := model.NewHashEmbedder(100)
				if err != nil {
					return shardConfigResult{}, err
				}
				counting := model.NewCountingModel(model.NewLatencyModel(base, 20*time.Microsecond))
				ecfg := service.Config{Model: counting, Threads: cfg.threads()}
				var (
					b      shardBackend
					router *shard.Router
				)
				if shards > 1 {
					router, err = shard.Open(shard.Config{Shards: shards, Partitioner: part, Engine: ecfg})
					b = router
				} else {
					b, err = service.NewEngine(ecfg)
				}
				if err != nil {
					return shardConfigResult{}, err
				}
				defer b.Close()
				for name, vals := range map[string][]string{"left": left, "right": right} {
					if _, err := b.RegisterCSVWithPrecision(name, schema, strings.NewReader(csvFor(vals)), false, quant.PrecisionAuto); err != nil {
						return shardConfigResult{}, err
					}
				}
				res := shardConfigResult{Label: label, Shards: shards, Partitioner: part}
				if res.ColdQPS, _, _, err = phase(b, counting); err != nil {
					return res, err
				}
				var warmCalls int64
				if res.WarmQPS, res.WarmP95Ms, warmCalls, err = phase(b, counting); err != nil {
					return res, err
				}
				res.WarmModelCalls = warmCalls
				canon, err := b.Query(context.Background(), service.QueryRequest{SQL: canonical})
				if err != nil {
					return res, err
				}
				res.MatchesPerQuery = len(canon.Matches)
				if router != nil {
					res.PartitionSkew = router.Stats().PartitionSkew
				}
				return res, nil
			}

			var rep shardReport
			rep.Clients = clients
			rep.RowsPerSide = rows
			rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
			for _, shape := range []struct {
				label string
				n     int
				part  string
			}{
				{"unsharded", 1, ""},
				{"hash-2", 2, "hash"},
				{"hash-4", 4, "hash"},
				{"centroid-4", 4, "centroid"},
			} {
				res, err := run(shape.label, shape.n, shape.part, uniformL, uniformR)
				if err != nil {
					return fmt.Errorf("uniform %s: %w", shape.label, err)
				}
				rep.Uniform = append(rep.Uniform, res)
			}
			for _, shape := range []struct {
				label string
				n     int
				part  string
			}{
				{"hash-4", 4, "hash"},
				{"centroid-4", 4, "centroid"},
			} {
				res, err := run(shape.label, shape.n, shape.part, skewedL, skewedR)
				if err != nil {
					return fmt.Errorf("skewed %s: %w", shape.label, err)
				}
				rep.Skewed = append(rep.Skewed, res)
			}
			rep.WarmSpeedupN4 = rep.Uniform[2].WarmQPS / rep.Uniform[0].WarmQPS

			t := newTable("Corpus", "Shape", "Cold QPS", "Warm QPS", "Warm p95 [ms]", "Skew", "Matches")
			for _, res := range rep.Uniform {
				t.addRow("uniform", res.Label, fmt.Sprintf("%.1f", res.ColdQPS),
					fmt.Sprintf("%.1f", res.WarmQPS), fmt.Sprintf("%.2f", res.WarmP95Ms),
					fmt.Sprintf("%.2f", res.PartitionSkew), fmt.Sprint(res.MatchesPerQuery))
			}
			for _, res := range rep.Skewed {
				t.addRow("skewed", res.Label, fmt.Sprintf("%.1f", res.ColdQPS),
					fmt.Sprintf("%.1f", res.WarmQPS), fmt.Sprintf("%.2f", res.WarmP95Ms),
					fmt.Sprintf("%.2f", res.PartitionSkew), fmt.Sprint(res.MatchesPerQuery))
			}
			t.print(w)
			fmt.Fprintf(w, "\nwarm QPS hash-4 / unsharded: %.2fx (GOMAXPROCS=%d; >= 1 needs cores to scatter across)\n",
				rep.WarmSpeedupN4, rep.GOMAXPROCS)
			for _, res := range rep.Uniform[1:] {
				if res.MatchesPerQuery != rep.Uniform[0].MatchesPerQuery {
					fmt.Fprintf(w, "WARNING: %s returned %d matches, unsharded %d — sharding changed results\n",
						res.Label, res.MatchesPerQuery, rep.Uniform[0].MatchesPerQuery)
				}
				if res.WarmModelCalls != 0 {
					fmt.Fprintf(w, "WARNING: %s warm phase made %d model calls; expected 0\n", res.Label, res.WarmModelCalls)
				}
			}

			if cfg.JSONDir != "" {
				path := filepath.Join(cfg.JSONDir, "BENCH_shard.json")
				data, err := json.MarshalIndent(rep, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					return fmt.Errorf("bench: writing %s: %w", path, err)
				}
				fmt.Fprintf(w, "wrote %s\n", path)
			}
			return nil
		},
	}
}
