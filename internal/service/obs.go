package service

// Observability wiring: the Prometheus text exposition the HTTP layer
// serves at /metrics. Per-query traces, the slow-query log, and the
// latency histograms belong to the query lifecycle (frontend.go).
// Recording is allocation-conscious: with tracing disabled the query path
// carries only nil-trace context lookups, and histograms are lock-free
// atomics.

import (
	"fmt"
	"io"
	"sort"

	"ejoin/internal/feedback"
	"ejoin/internal/obs"
)

// SlowQueries snapshots the slow-query log (the /debug/queries payload).
func (e *Engine) SlowQueries() obs.SlowLogDump { return e.front.SlowQueries() }

// ObsStats is the tracing subsystem's own accounting within ServerStats.
type ObsStats struct {
	// TracedQueries counts queries (and mutations) that carried a trace.
	TracedQueries int64 `json:"traced_queries"`
	// SlowLogEntries/SlowLogWorst are the retained trace counts;
	// SlowLogRecorded counts ring admissions ever (including overwritten).
	SlowLogEntries  int   `json:"slow_log_entries"`
	SlowLogWorst    int   `json:"slow_log_worst"`
	SlowLogRecorded int64 `json:"slow_log_recorded"`
	// SlowQueryThresholdNS is the ring's admission threshold (0 = all).
	SlowQueryThresholdNS int64 `json:"slow_query_threshold_ns"`
	// LatencySamples is the overall latency histogram's observation count.
	LatencySamples uint64 `json:"latency_samples"`
}

// WriteMetrics renders the engine's statistics in Prometheus text
// exposition format (version 0.0.4). One Stats() snapshot feeds every
// scalar family, and the histograms render from their own atomics;
// families and label values are emitted in sorted, deterministic order.
func (e *Engine) WriteMetrics(w io.Writer) error {
	st := e.Stats()
	mw := obs.NewMetricsWriter(w)

	mw.Gauge("ejoin_uptime_seconds", "Seconds since the engine was built.", st.Uptime.Seconds())
	mw.Counter("ejoin_queries_total", "Successfully served queries.", float64(st.Queries))
	mw.Counter("ejoin_query_errors_total", "Failed queries (parse, bind, execution, deadline).", float64(st.Errors))
	mw.Counter("ejoin_queries_rejected_total", "Queries whose context ended while waiting for admission.", float64(st.Rejected))
	mw.Counter("ejoin_admission_waits_total", "Queries that queued for a slot or byte budget.", float64(st.AdmissionWaits))
	mw.Gauge("ejoin_in_flight_queries", "Queries currently executing.", float64(st.InFlight))
	mw.Gauge("ejoin_admitted_bytes", "Intermediate-footprint weight currently held.", float64(st.AdmittedBytes))
	mw.Gauge("ejoin_admission_waiting", "Queries queued for admission right now.", float64(st.AdmissionWaiting))
	mw.Counter("ejoin_plan_cache_hits_total", "Prepared-plan cache hits.", float64(st.PlanCacheHits))
	mw.Counter("ejoin_plan_cache_misses_total", "Prepared-plan cache misses.", float64(st.PlanCacheMisses))
	mw.Counter("ejoin_plan_cache_invalidations_total", "Plans dropped after catalog generation changes.", float64(st.PlanCacheInvalidations))
	mw.Gauge("ejoin_plan_cache_entries", "Prepared plans currently cached.", float64(st.PlanCacheEntries))
	mw.Gauge("ejoin_tables", "Registered catalog tables.", float64(st.Tables))

	mw.Counter("ejoin_model_calls_total", "Model.Embed invocations across served queries.", float64(st.Join.ModelCalls))
	mw.Counter("ejoin_comparisons_total", "Vector pair comparisons across served queries.", float64(st.Join.Comparisons))
	mw.Counter("ejoin_embed_seconds_total", "Cumulative embedding (E_mu) time.", st.Join.EmbedTime.Seconds())
	mw.Counter("ejoin_join_seconds_total", "Cumulative join/comparison time.", st.Join.JoinTime.Seconds())
	mw.Counter("ejoin_rerank_seconds_total", "Cumulative exact-rerank time inside index probes.", st.Join.RerankTime.Seconds())

	countsByLabel(mw, "ejoin_joins_by_strategy_total", "Executed joins per physical strategy.", "strategy", st.Strategies)
	countsByLabel(mw, "ejoin_joins_by_precision_total", "Executed joins per effective scan precision.", "precision", st.Quant.JoinsByPrecision)

	mw.Counter("ejoin_store_hits_total", "Embedding store cache hits.", float64(st.Store.Hits))
	mw.Counter("ejoin_store_misses_total", "Embedding store cache misses.", float64(st.Store.Misses))
	mw.Counter("ejoin_store_merged_total", "Lookups merged into another in-flight model call.", float64(st.Store.Merged))
	mw.Counter("ejoin_store_evictions_total", "Embedding store LRU evictions.", float64(st.Store.Evictions))
	mw.Gauge("ejoin_store_entries", "Cached embeddings.", float64(st.Store.Entries))
	mw.Gauge("ejoin_store_bytes", "Embedding store resident bytes.", float64(st.Store.Bytes))

	if mu := st.Mutation; mu != nil {
		mw.Counter("ejoin_upsert_batches_total", "Applied upsert batches.", float64(mu.Upserts))
		mw.Counter("ejoin_delete_batches_total", "Applied delete batches.", float64(mu.Deletes))
		mw.Counter("ejoin_upserted_rows_total", "Rows appended by upserts.", float64(mu.UpsertedRows))
		mw.Counter("ejoin_deleted_rows_total", "Rows tombstoned by deletes.", float64(mu.DeletedRows))
		mw.Gauge("ejoin_tombstones", "Dead rows currently held across tables.", float64(mu.Tombstones))
		if mu.WAL != nil {
			mw.Counter("ejoin_wal_records_total", "Records appended to the WAL by this process.", float64(mu.WAL.AppendedRecords))
			mw.Gauge("ejoin_wal_bytes", "Current WAL size in bytes.", float64(mu.WAL.SizeBytes))
		}
	}

	ee := st.Exec
	mw.Counter("ejoin_exec_truncated_queries_total", "Queries a LIMIT short-circuited.", float64(ee.TruncatedQueries))
	mw.Counter("ejoin_exec_batches_total", "Batches emitted across all pipeline operators.", float64(ee.Batches))
	mw.Counter("ejoin_exec_rows_early_out_total", "Rows and matches skipped by early termination.", float64(ee.EarlyOutRows))

	ob := st.Obs
	mw.Counter("ejoin_traced_queries_total", "Queries that carried a trace.", float64(ob.TracedQueries))
	mw.Gauge("ejoin_slow_log_entries", "Traces retained in the slow-query ring.", float64(ob.SlowLogEntries))

	fb := st.Feedback
	mw.Counter("ejoin_feedback_audits_total", "Completed online recall audits.", float64(fb.Audits))
	mw.Counter("ejoin_feedback_audits_dropped_total", "Audit samples shed under queue pressure or audit failure.", float64(fb.AuditsDropped))
	mw.Counter("ejoin_feedback_tuner_moves_total", "Index knob changes applied by the SLO tuner.", float64(fb.TunerMoves))
	mw.Counter("ejoin_feedback_regret_total", "Queries whose post-hoc observed costs favored a different strategy.", float64(fb.Regret))

	mw.Histogram("ejoin_query_duration_seconds",
		"End-to-end latency of served queries.", &e.front.obs.latency)
	mw.HistogramVec("ejoin_query_strategy_duration_seconds",
		"Query latency split by physical join strategy.", "strategy", &e.front.obs.byStrategy)
	mw.HistogramVec("ejoin_query_precision_duration_seconds",
		"Query latency split by effective scan precision.", "precision", &e.front.obs.byPrecision)
	mw.HistogramVec("ejoin_exec_operator_duration_seconds",
		"Cumulative per-query self time of each pipeline operator.", "operator", &e.byOperator)

	writeFloatHist(mw, "ejoin_feedback_audit_recall",
		"Observed recall@k from sampled index-path audits.", e.feedback.RecallHist)
	writeFloatHist(mw, "ejoin_feedback_qerror_corrected",
		"Q-error of the feedback-corrected output cardinality estimate.", e.feedback.QErrHist)
	writeFloatHist(mw, "ejoin_feedback_qerror_static",
		"Q-error of the static (uncorrected) output cardinality estimate.", e.feedback.QErrStaticHist)
	return mw.Err()
}

// writeFloatHist renders one of the feedback registry's value histograms.
func writeFloatHist(mw *obs.MetricsWriter, name, help string, h *feedback.FloatHist) {
	bounds, counts, sum, _ := h.Snapshot()
	mw.FloatHistogram(name, help, bounds, counts, sum)
}

// countsByLabel renders one counter family with a sample per label value,
// in sorted order (maps iterate randomly; exposition must not).
func countsByLabel(mw *obs.MetricsWriter, name, help, label string, counts map[string]int64) {
	if len(counts) == 0 {
		return
	}
	mw.Family(name, "counter", help)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		mw.Sample(name, []string{label, k}, float64(counts[k]))
	}
}

// mutationLabel renders a mutation batch for its trace label.
func mutationLabel(op, table string, n int) string {
	return fmt.Sprintf("%s %s (%d keys)", op, table, n)
}
