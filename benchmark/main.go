// Command benchmark is the repository's benchmark: it builds and boots a
// real ejserve per workload, drives it over HTTP with two closed-loop
// clients, checks answers against a brute-force oracle, and prints every
// metric by name with its unit. A second, traced pass replays a prefix of
// each workload in-process and times the calls into each layer's public
// functions. See README.md.
//
//	bash benchmark/run.sh                          # every workload, both passes
//	bash benchmark/run.sh -workload scan_warm      # one workload
//	bash benchmark/run.sh -compare a.json b.json   # verdict per workload x metric
//
// Driver contract (BENCHMARK.json): with -workload, -seed, -seconds and
// -trace 0|1 the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run (all = every workload)")
		seed         = flag.Int64("seed", 1, "seed for the generated inputs; the same seed gives the same inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "length of the timed window in seconds")
		trace        = flag.Int("trace", -1, "0 = end-to-end metrics (spans off), 1 = per-layer metrics (traced pass), -1 = both")
		runs         = flag.Int("runs", 1, "repeat each workload this many times with seeds seed, seed+1, ...")
		out          = flag.String("out", "", "write the result envelope (JSON) to this file")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans (JSON) to this file (default .bench_build/spans-<workload>.json)")
		compare      = flag.Bool("compare", false, "compare two result envelopes: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *runs < 1 || *trace < -1 || *trace > 1 {
		fatal("need -seconds >= 1, -runs >= 1, -trace in {-1,0,1}")
	}

	var selected []*workload
	if *workloadName == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*workloadName); w != nil {
		selected = []*workload{w}
	} else {
		fatal("unknown workload %q", *workloadName)
	}

	installSignalHandler()

	p, err := findPaths()
	if err != nil {
		fatal("%v", err)
	}
	bin, err := buildServer(p)
	if err != nil {
		fatal("%v", err)
	}

	env := newEnvelope(p, *seed, *seconds, *runs)
	exit := 0
	var last *runResult
	for _, w := range selected {
		wr := workloadResult{Name: w.Name, Why: w.Why, Sizes: w.Sizes, Flags: w.Flags, Correct: true}
		for r := 0; r < *runs; r++ {
			res, err := runOnce(p, bin, w, *seed+int64(r), time.Duration(*seconds)*time.Second, *trace, *traceOut)
			if err != nil {
				fatal("%s: %v", w.Name, err)
			}
			wr.add(res)
			last = res
		}
		wr.print(os.Stdout)
		if !wr.Correct {
			exit = 1
		}
		env.Workloads = append(env.Workloads, wr)
	}
	if *out != "" {
		if err := env.write(*out); err != nil {
			fatal("%v", err)
		}
	}
	// The driver reads the last line: one workload, one run.
	if len(selected) == 1 && *runs == 1 && *trace >= 0 {
		line, err := json.Marshal(last.contractLine(*trace))
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		// A failed oracle check is reported in the line (correct=false);
		// the exit code stays 0 so the driver reads it.
		return
	}
	os.Exit(exit)
}

// fatal reports an error and exits, killing any server child first.
func fatal(format string, args ...any) {
	killAllChildren()
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runResult is one pass (or both passes) of one run of one workload.
type runResult struct {
	attempted, failed int
	errs              []string
	metrics           measured
}

// runOnce measures one workload once. trace selects the passes.
func runOnce(p paths, bin string, w *workload, seed int64, dur time.Duration, trace int, traceOut string) (*runResult, error) {
	res := &runResult{metrics: make(measured)}
	// Each pass computes more than it owns (the HTTP run is shared);
	// only the pass's own metrics are kept.
	keep := func(pass *runResult, defs []metricDef) {
		res.attempted += pass.attempted
		res.failed += pass.failed
		res.errs = append(res.errs, pass.errs...)
		for _, d := range defs {
			res.metrics[d.Name] = pass.metrics[d.Name]
		}
	}
	if trace != 1 {
		pass, err := runHTTP(p, bin, w, seed, dur, setupRepeats, false)
		if err != nil {
			return nil, err
		}
		keep(pass, endToEnd)
	}
	if trace != 0 {
		pass, err := runTraced(p, bin, w, seed, dur, traceOut)
		if err != nil {
			return nil, err
		}
		keep(pass, perLayer)
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, e)
	}
	return res, nil
}

// contractLine is the driver's result object.
func (r *runResult) contractLine(trace int) map[string]any {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.Name] = map[string]any{"value": r.metrics[d.Name].Value, "unit": d.Unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}
