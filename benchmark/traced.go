package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"ejoin/internal/cost"
	"ejoin/internal/plan"
)

// runTraced is the traced pass. It has three parts: a short HTTP run
// against a real server for the counters only the server has (/stats
// deltas, reply fields, mutation and recovery timings); the in-process
// staged replay of a prefix of the workload, with the benchmark's own
// spans; and the leaf kernels and cost-model scoring on the workload's
// own matrices. The window is split 40/30 between the first two; the
// third does a fixed amount of work.
func runTraced(p paths, bin string, w *workload, seed int64, dur time.Duration, traceOut string) (*runResult, error) {
	run, err := runHTTP(p, bin, w, seed, dur*4/10, 1, true)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	in := w.generate(seed)
	r, err := newReplay(ctx, p, w, in)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	defer r.close()

	rec := newRecorder()
	// in.Seq is untouched so far (the HTTP run generated its own inputs
	// from the same seed), so the replay walks the same prefix it sent.
	st, err := r.run(ctx, rec, in.Seq, dur*3/10)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	st.metrics(run.metrics, rec.spans)
	if err := scoreCostModel(ctx, r, in, run.metrics); err != nil {
		return nil, fmt.Errorf("traced pass: cost model: %w", err)
	}
	if err := measureLayers(ctx, p, in, run.metrics); err != nil {
		return nil, fmt.Errorf("traced pass: layers: %w", err)
	}

	if traceOut == "" {
		traceOut = filepath.Join(p.build, "spans-"+w.Name+".json")
	}
	if err := writeSpans(traceOut, w.Name, seed, rec.spans); err != nil {
		return nil, err
	}
	return run, nil
}

// costSamples bounds how many distinct plans the cost-model score runs
// under every strategy (an index strategy without an index pays an HNSW
// build per run).
const costSamples = 4

// scoreCostModel asks how often the calibrated cost model picks the
// strategy that is actually fastest — the paper's central claim as a
// number. Each sampled plan is optimized with cost.Calibrate's
// parameters, then executed once under every strategy that can run it.
// pick_accuracy is the share of plans whose chosen strategy was the
// fastest; choice_regret the mean of chosen time over best time;
// time_qerror_p50 the median q-error of predicted against measured time,
// after fitting the one scale factor that turns cost units into seconds.
func scoreCostModel(ctx context.Context, r *replay, in *inputs, m measured) error {
	params, err := cost.Calibrate(r.eng.Model(), embedDim)
	if err != nil {
		return err
	}
	strategies := []cost.Strategy{cost.StrategyNLJ, cost.StrategyTensor, cost.StrategyIndex}
	type run struct{ estimate, seconds float64 }
	var runs []run
	var picks, plans int
	var regret float64
	for i, o := range in.Warm {
		if i >= costSamples {
			break
		}
		q, err := r.bind(nil, o.SQL)
		if err != nil {
			return err
		}
		naive, err := plan.NewNaivePlan(q)
		if err != nil {
			return err
		}
		store := r.on.ex.Store
		chosen, err := (&plan.Optimizer{Params: params, Store: store}).Optimize(naive)
		if err != nil {
			return err
		}
		seconds := make(map[cost.Strategy]float64)
		best := math.Inf(1)
		for _, s := range strategies {
			forced, err := (&plan.Optimizer{Params: params, Store: store, ForceStrategy: &s}).Optimize(naive)
			if err != nil {
				continue // strategy not applicable to this plan
			}
			t0 := time.Now()
			if _, err := r.on.ex.ExecuteStreaming(ctx, forced, o.Limit); err != nil {
				continue
			}
			seconds[s] = time.Since(t0).Seconds()
			best = math.Min(best, seconds[s])
			if est, ok := chosen.Estimates[s]; ok && est > 0 {
				runs = append(runs, run{estimate: est, seconds: seconds[s]})
			}
		}
		if t, ok := seconds[chosen.Strategy]; ok {
			plans++
			regret += t / best
			if t == best {
				picks++
			}
		}
	}
	m.set("cost.pick_accuracy", ratio(float64(picks), float64(plans)), plans)
	m.set("cost.choice_regret", ratio(regret, float64(plans)), plans)

	scales := make([]float64, len(runs))
	for i, r := range runs {
		scales[i] = r.seconds / r.estimate
	}
	scale := median(scales)
	qerr := make([]float64, len(runs))
	for i, r := range runs {
		pred := r.estimate * scale
		qerr[i] = math.Max(pred/r.seconds, r.seconds/pred)
	}
	m.set("cost.time_qerror_p50", median(qerr), len(qerr))
	return nil
}
