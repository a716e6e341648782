// Command ejbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ejbench -list
//	ejbench -exp fig8,fig14
//	ejbench -exp all -scale 10 -threads 8
//
// Each experiment prints the same rows/series as the corresponding table or
// figure in the paper, at host-scaled sizes (`ejbench -list` maps each
// experiment to its table or figure; README, "Benchmarks").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ejoin/internal/bench"
	"ejoin/internal/embstore"
)

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		scale   = flag.Float64("scale", 1, "input size multiplier (≈100 approaches paper sizes)")
		threads = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		seed    = flag.Int64("seed", 42, "workload RNG seed")
		quick   = flag.Bool("quick", false, "tiny sizes for smoke runs")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonDir = flag.String("json", ".", "directory for BENCH_*.json results ('' disables)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-10s %-12s %s\n", e.Name, e.Paper, e.Description)
		}
		return
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Quick = *quick
	if *threads > 0 {
		cfg.Threads = *threads
	}
	cfg.JSONDir = *jsonDir
	// One shared embedding store per process, as a production deployment
	// would hold one across all queries it serves.
	cfg.Store = embstore.New(embstore.Config{MaxBytes: 256 << 20})

	if *exps == "all" {
		if err := bench.RunAll(os.Stdout, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "ejbench:", err)
			os.Exit(1)
		}
		return
	}
	for _, name := range strings.Split(*exps, ",") {
		name = strings.TrimSpace(name)
		e, ok := bench.Get(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "ejbench: unknown experiment %q (try -list)\n", name)
			os.Exit(1)
		}
		if err := bench.RunOne(os.Stdout, e, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ejbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
