package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// verdict is the outcome of comparing one metric of one workload between
// two result envelopes.
type verdict string

const (
	// better: improved by more than the run-to-run spread.
	better verdict = "better"
	// worse: worsened by more than the metric's bound.
	worse verdict = "worse"
	// same: within the bound, and the spread is narrow enough to say so.
	same verdict = "same"
	// unresolved: the runs of one side spread wider than the bound, so
	// neither "same" nor "worse" can be claimed.
	unresolved verdict = "unresolved"
)

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(values, n=4) (exclusive), which is what
// the driver uses. Fewer than two values have no spread: both are the
// value itself.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, math.Abs(median(vals)))
}

// judge compares b against a for one metric. worsening is the change of
// the median in the metric's bad direction as a share of a's median
// (negative = improved); spread is the wider of the two sides' spreads.
func judge(d metricDef, a, b []float64) (v verdict, worsening, spread float64) {
	ma, mb := median(a), median(b)
	worsening = ratio(mb-ma, math.Abs(ma))
	if d.Better == "higher" {
		worsening = -worsening
	}
	spread = math.Max(spreadOf(a), spreadOf(b))
	switch {
	case spread > d.Bound:
		v = unresolved
	case worsening > d.Bound:
		v = worse
	case worsening < 0 && -worsening > spread:
		v = better
	default:
		v = same
	}
	return v, worsening, spread
}

// compareFiles prints a verdict per workload and end-to-end metric, using
// each metric's own bound and direction, and the change of every
// per-layer metric without a verdict (they have no bound). It returns the
// process exit code: 1 if anything is worse, 2 on unreadable input.
func compareFiles(out io.Writer, aPath, bPath string) int {
	a, err := readEnvelope(aPath)
	if err == nil {
		var b *envelope
		if b, err = readEnvelope(bPath); err == nil {
			return compareEnvelopes(out, a, b)
		}
	}
	fmt.Fprintln(out, "benchmark: -compare:", err)
	return 2
}

func compareEnvelopes(out io.Writer, a, b *envelope) int {
	code := 0
	fmt.Fprintf(out, "a: commit %s, %d run(s) x %d s    b: commit %s, %d run(s) x %d s\n",
		a.Commit, a.Runs, a.Seconds, b.Commit, b.Runs, b.Seconds)
	fmt.Fprintf(out, "%-14s %-34s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse-by", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(out, "%-14s %-34s %14d %14d %9s %8s %7s  %s\n", wa.Name, "failed_ops", wa.Failed, wb.Failed, "", "", "0", worse)
			code = 1
		}
		for _, ra := range wa.Metrics {
			d, ok := findMetric(ra.Metric)
			if !ok {
				continue
			}
			for _, rb := range wb.Metrics {
				if rb.Metric != ra.Metric {
					continue
				}
				v, worsening, spread := judge(d, ra.Values, rb.Values)
				bound, label := fmt.Sprintf("%.2f", d.Bound), string(v)
				if ra.Kind != "end_to_end" {
					bound, label = "-", "-"
				} else if v == worse {
					code = 1
				}
				fmt.Fprintf(out, "%-14s %-34s %14.4f %14.4f %+8.1f%% %7.1f%% %7s  %s\n",
					wa.Name, ra.Metric, ra.Value, rb.Value, 100*worsening, 100*spread, bound, label)
			}
		}
	}
	return code
}
