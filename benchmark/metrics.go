package main

import (
	"math"
	"sort"
)

// metricDef declares one metric: its unit, which direction is better,
// and — for end-to-end metrics — the share of the parent's median by
// which it may worsen before a change counts as a regression.
// BENCHMARK.json carries the same table; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only
}

// endToEnd are the metrics a user of the server sees. Each is measured
// with the benchmark's spans off, on every workload.
//
// ISSUE.md lists eleven. Five could not stay here under the benchmark
// contract (every end-to-end metric is reported on every workload and is
// never 0): fail_ratio is 0 on a healthy run and is reported as the
// result's failed/attempted counts instead; mutate_p50_ms, mutate_p95_ms,
// recovery_s and disk_amp exist only on mixed_mutate and are reported as
// per-layer metrics under the same names.
//
// Bounds are wider than the 0.10 ISSUE.md proposed. Ten-seed passes on the
// 2-core sandbox spread (interquartile, as a share of the median) up to 3 %
// on the read-only workloads but up to 6 % (10 % for p95) on mixed_mutate,
// and the host itself drifts by about a tenth over minutes; each bound is
// at least three times the widest spread seen, capped at the contract's
// 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.20},
	{"query_p50_ms", "ms", "lower", 0.20},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced pass, named
// <module>.<metric> after this repo's packages. A metric that does not
// apply to a workload (mutation.* on a read-only one, shard.* on an
// unsharded one) reads 0 there. README.md says which end-to-end metric
// each should move, and on which workload.
var perLayer = []metricDef{
	{Name: "http.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.resp_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "http.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.front_self_us", Unit: "us", Better: "lower"},
	{Name: "service.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.admission_wait_ratio", Unit: "ratio", Better: "lower"},
	{Name: "service.errors", Unit: "count", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "sqlish.prepare_us", Unit: "us", Better: "lower"},
	{Name: "plan.optimize_us", Unit: "us", Better: "lower"},
	{Name: "plan.strategy_nlj_share", Unit: "ratio", Better: "higher"},
	{Name: "plan.strategy_tensor_share", Unit: "ratio", Better: "higher"},
	{Name: "plan.strategy_index_share", Unit: "ratio", Better: "higher"},
	{Name: "cost.pick_accuracy", Unit: "ratio", Better: "higher"},
	{Name: "cost.choice_regret", Unit: "ratio", Better: "lower"},
	{Name: "cost.time_qerror_p50", Unit: "ratio", Better: "lower"},
	{Name: "model.embed_ns", Unit: "ns", Better: "lower"},
	{Name: "embstore.embed_all_cold_ns_row", Unit: "ns", Better: "lower"},
	{Name: "embstore.embed_all_warm_ns_row", Unit: "ns", Better: "lower"},
	{Name: "embstore.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "embstore.evictions", Unit: "count", Better: "lower"},
	{Name: "embstore.model_calls", Unit: "count", Better: "lower"},
	{Name: "embstore.merged", Unit: "count", Better: "higher"},
	{Name: "exec.scan_ns_row", Unit: "ns", Better: "lower"},
	{Name: "exec.embed_ns_row", Unit: "ns", Better: "lower"},
	{Name: "exec.probe_ns_pair", Unit: "ns", Better: "lower"},
	{Name: "exec.probe_share", Unit: "ratio", Better: "higher"},
	{Name: "exec.limit_early_out_rows", Unit: "count", Better: "higher"},
	{Name: "core.nlj_ns_pair", Unit: "ns", Better: "lower"},
	{Name: "core.tensor_ns_pair", Unit: "ns", Better: "lower"},
	{Name: "core.topk_ns_pair", Unit: "ns", Better: "lower"},
	{Name: "core.nlj_f16_ns_pair", Unit: "ns", Better: "lower"},
	{Name: "core.nlj_i8_ns_pair", Unit: "ns", Better: "lower"},
	{Name: "vec.dot_f32_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "vec.dot_f16_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "quant.dot_i8_gops", Unit: "GOP/s", Better: "higher"},
	{Name: "quant.adc_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "mat.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "kernels.copy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "ivf.build_s", Unit: "s", Better: "lower"},
	{Name: "ivf.search_us", Unit: "us", Better: "lower"},
	{Name: "ivf.recall_at_10", Unit: "ratio", Better: "higher"},
	{Name: "hnsw.search_us", Unit: "us", Better: "lower"},
	{Name: "hnsw.recall_at_10", Unit: "ratio", Better: "higher"},
	{Name: "mutation.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "mutation.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "mutation.upserted_rows", Unit: "count", Better: "higher"},
	{Name: "mutation.deleted_rows", Unit: "count", Better: "higher"},
	{Name: "mutation.checkpoints", Unit: "count", Better: "higher"},
	{Name: "mutate_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery_s", Unit: "s", Better: "lower"},
	{Name: "disk_amp", Unit: "ratio", Better: "lower"},
	{Name: "durable.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.replayed_records", Unit: "count", Better: "lower"},
	{Name: "durable.loaded_entries", Unit: "count", Better: "higher"},
	{Name: "shard.router_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.fanout_pairs_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.merge_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.partition_skew", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "proc.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.replayed_ops", Unit: "count", Better: "higher"},
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metricValue is one measured metric: the value and how many samples it
// summarizes (latency samples for a percentile, ops for a rate, 1 for a
// single reading).
type metricValue struct {
	Value   float64
	Samples int
}

// measured collects a run's metrics by name.
type measured map[string]metricValue

func (m measured) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricValue{Value: v, Samples: samples}
}

// percentile returns the p-th percentile (0 < p < 1) of vals by the
// nearest-rank method; 0 for an empty sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// supportedTail is the highest of the usual tail percentiles that has at
// least ten samples beyond it in a sample of n — the only tail worth
// reporting, since a percentile resting on fewer samples does not repeat.
// It returns 0.5 when even p90 has too few.
func supportedTail(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.90, 0.95, 0.99, 0.999} {
		// Samples strictly beyond the nearest-rank p-th percentile.
		// (The epsilon keeps a product like 0.95*200 from rounding up
		// to the next rank.)
		if n-int(math.Ceil(p*float64(n)-1e-9)) >= 10 {
			best = p
		}
	}
	return best
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
