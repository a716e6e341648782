package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run sets the server up (boot →
// /readyz → ingest → warm-up). setup_s is the median, so one slow boot
// does not decide it; the last server stays up for the timed window.
const setupRepeats = 5

// failure counts one failed op (already counted as attempted).
func (r *runResult) failure(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// statsDoc is the part of /stats the benchmark reads. An unsharded
// server fills the top level; a sharded one adds the fan-out fields and
// nests each shard's engine stats under per_shard (the embedding store is
// one object shared by all shards, so shard 0's view is the whole).
type statsDoc struct {
	Queries         int64 `json:"queries"`
	Errors          int64 `json:"errors"`
	Rejected        int64 `json:"rejected"`
	AdmissionWaits  int64 `json:"admission_waits"`
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	Store           *struct {
		Hits       int64 `json:"hits"`
		Misses     int64 `json:"misses"`
		Merged     int64 `json:"merged"`
		Evictions  int64 `json:"evictions"`
		ModelCalls int64 `json:"model_calls"`
	} `json:"store"`
	Mutation *struct {
		UpsertedRows    int64 `json:"upserted_rows"`
		DeletedRows     int64 `json:"deleted_rows"`
		Checkpoints     int64 `json:"checkpoints"`
		ReplayedRecords int64 `json:"replayed_records"`
	} `json:"mutation"`
	Durable *struct {
		LoadedEntries int64 `json:"loaded_entries"`
	} `json:"durable"`
	FanoutPairs   int64      `json:"fanout_pairs"`
	MergeWaitNS   int64      `json:"merge_wait_ns"`
	PartitionSkew float64    `json:"partition_skew"`
	PerShard      []statsDoc `json:"per_shard"`
}

// counters flattens the two /stats shapes into one set of totals.
type counters struct {
	queries, errors, rejected, admissionWaits, planHits, planMisses float64
	storeHits, storeMisses, merged, evictions, modelCalls           float64
	upsertedRows, deletedRows, checkpoints                          float64
	replayedRecords, loadedEntries                                  float64
	fanoutPairs, mergeWaitNS, partitionSkew                         float64
}

func (d *statsDoc) counters() counters {
	c := counters{
		queries: float64(d.Queries), errors: float64(d.Errors), rejected: float64(d.Rejected),
		admissionWaits: float64(d.AdmissionWaits), planHits: float64(d.PlanCacheHits), planMisses: float64(d.PlanCacheMisses),
		fanoutPairs: float64(d.FanoutPairs), mergeWaitNS: float64(d.MergeWaitNS), partitionSkew: d.PartitionSkew,
	}
	engines := d.PerShard
	if len(engines) == 0 {
		engines = []statsDoc{*d}
	}
	if st := engines[0].Store; st != nil {
		c.storeHits, c.storeMisses = float64(st.Hits), float64(st.Misses)
		c.merged, c.evictions, c.modelCalls = float64(st.Merged), float64(st.Evictions), float64(st.ModelCalls)
	}
	for _, e := range engines {
		if m := e.Mutation; m != nil {
			c.upsertedRows += float64(m.UpsertedRows)
			c.deletedRows += float64(m.DeletedRows)
			c.checkpoints += float64(m.Checkpoints)
			c.replayedRecords += float64(m.ReplayedRecords)
		}
		if du := e.Durable; du != nil {
			c.loadedEntries += float64(du.LoadedEntries)
		}
	}
	return c
}

func (s *server) counters() (counters, error) {
	var d statsDoc
	if err := s.stats(&d); err != nil {
		return counters{}, err
	}
	return d.counters(), nil
}

// runHTTP sets a real ejserve up setups times, drives the last one for
// dur with the workload's op sequence, checks sampled replies against the
// oracle, and (durable workloads) kills and reboots it. The returned
// metrics hold every end-to-end metric plus the per-layer metrics that
// come from the HTTP side (/stats deltas, reply fields, mutation and
// recovery timings).
func runHTTP(p paths, bin string, w *workload, seed int64, dur time.Duration, setups int, detail bool) (*runResult, error) {
	in := w.generate(seed)
	run := &runResult{metrics: make(measured)}

	var srv *server
	var dataDir string
	cleanup := func() {
		if srv != nil {
			srv.kill()
			srv = nil
		}
		if dataDir != "" {
			os.RemoveAll(dataDir)
			dataDir = ""
		}
	}
	defer cleanup()

	var setupS []float64
	for k := 0; k < setups; k++ {
		cleanup()
		t0 := time.Now()
		if w.Durable {
			var err error
			if dataDir, err = os.MkdirTemp(filepath.Join(p.build, "tmp"), "data-"); err != nil {
				return nil, err
			}
		}
		var err error
		if srv, err = startServer(bin, w, dataDir); err != nil {
			return nil, err
		}
		if err := srv.setup(in); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	run.metrics.set("setup_s", median(setupS), len(setupS))

	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	load := runLoad(srv, in.Seq, dur, detail)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	run.attempted, run.failed = load.attempted, load.failed
	if load.firstErr != "" {
		run.errs = append(run.errs, load.firstErr)
	}
	ok := float64(load.attempted - load.failed)
	m := run.metrics
	m.set("qps", ok/load.wall.Seconds(), load.attempted)
	m.set("query_p50_ms", median(load.queryMs), len(load.queryMs))
	m.set("query_p95_ms", percentile(load.queryMs, 0.95), len(load.queryMs))
	if tail := supportedTail(len(load.queryMs)); tail < 0.95 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: query_p95_ms has fewer than 10 of %d samples beyond it (p%g is the highest that does): lengthen -seconds\n",
			w.Name, len(load.queryMs), 100*tail)
	}
	m.set("cpu_ms_per_query", ratio((cpu1-cpu0)*1000, ok), load.attempted)
	m.set("peak_rss_mb", rss, 1)

	nq := float64(len(load.queryMs))
	m.set("http.query_p99_ms", percentile(load.queryMs, 0.99), len(load.queryMs))
	m.set("http.resp_bytes_per_query", ratio(float64(load.respBytes), nq), len(load.queryMs))
	m.set("http.overhead_p50_ms", median(load.overheadMs), len(load.overheadMs))
	strategies := 0
	for _, n := range load.strategies {
		strategies += n
	}
	m.set("plan.strategy_nlj_share", ratio(float64(load.strategies["NLJ"]), float64(strategies)), strategies)
	m.set("plan.strategy_tensor_share", ratio(float64(load.strategies["TensorJoin"]), float64(strategies)), strategies)
	m.set("plan.strategy_index_share", ratio(float64(load.strategies["IndexJoin"]), float64(strategies)), strategies)

	dq := after.queries - before.queries
	m.set("service.plan_cache_hit_ratio", ratio(after.planHits-before.planHits, after.planHits-before.planHits+after.planMisses-before.planMisses), int(dq))
	m.set("service.admission_wait_ratio", ratio(after.admissionWaits-before.admissionWaits, dq), int(dq))
	m.set("service.errors", after.errors-before.errors, int(dq))
	m.set("service.rejected", after.rejected-before.rejected, int(dq))
	lookups := after.storeHits - before.storeHits + after.storeMisses - before.storeMisses
	m.set("embstore.hit_ratio", ratio(after.storeHits-before.storeHits, lookups), int(lookups))
	m.set("embstore.evictions", after.evictions-before.evictions, int(lookups))
	m.set("embstore.model_calls", after.modelCalls-before.modelCalls, int(lookups))
	m.set("embstore.merged", after.merged-before.merged, int(lookups))
	m.set("mutation.upserted_rows", after.upsertedRows-before.upsertedRows, len(load.mutateMs))
	m.set("mutation.deleted_rows", after.deletedRows-before.deletedRows, len(load.mutateMs))
	m.set("mutation.checkpoints", after.checkpoints-before.checkpoints, len(load.snapshotMs))
	m.set("mutate_p50_ms", median(load.mutateMs), len(load.mutateMs))
	m.set("mutate_p95_ms", percentile(load.mutateMs, 0.95), len(load.mutateMs))
	m.set("durable.snapshot_ms", median(load.snapshotMs), len(load.snapshotMs))
	m.set("shard.fanout_pairs_per_query", ratio(after.fanoutPairs-before.fanoutPairs, dq), int(dq))
	var queryNS float64
	for _, ms := range load.queryMs {
		queryNS += ms * 1e6
	}
	m.set("shard.merge_wait_share", ratio(after.mergeWaitNS-before.mergeWaitNS, queryNS), int(dq))
	m.set("shard.partition_skew", after.partitionSkew, 1)

	orc, err := newOracle()
	if err != nil {
		return nil, err
	}
	if w.Durable {
		if srv, err = recoverAndCheck(run, orc, srv, bin, w, dataDir, in); err != nil {
			return nil, err
		}
	} else {
		checkSamples(run, orc, in, load.samples)
	}
	return run, nil
}

// checkSamples verifies the sampled replies of a read-only workload.
func checkSamples(run *runResult, orc *oracle, in *inputs, samples []sample) {
	tables := make(map[string][]row, len(in.Tables))
	for _, t := range in.Tables {
		tables[t.Name] = t.Rows // generated in id order
	}
	for _, s := range samples {
		spec := s.op.spec
		err := orc.checkReply(s.body, s.op, spec.Left+"/"+spec.Right, tables[spec.Left], tables[spec.Right], false)
		if err != nil {
			run.failure("oracle: %q: %v", s.op.SQL, err)
		}
	}
}

// quiescentCheck compares the server's state with the model: every live
// row visible with its latest columns, and the joins equal to brute
// force over the live rows. No mutation is in flight when it runs.
func quiescentCheck(run *runResult, orc *oracle, srv *server, in *inputs, when string) {
	for _, q := range in.Check {
		run.attempted++
		body, err := expect2xx(srv.send(q))
		if err == nil && q.spec.K == 1 {
			err = checkVisible(body, in.Live[q.spec.Left])
		}
		if err == nil {
			err = orc.checkReply(body, q, "", liveRows(in.Live[q.spec.Left]), liveRows(in.Live[q.spec.Right]), true)
		}
		if err != nil {
			run.failure("%s: %q: %v", when, q.SQL, err)
		}
	}
}

// recoverAndCheck is mixed_mutate's tail: check the quiescent state, kill
// the server with SIGKILL, reboot it on the same data dir, time the
// reboot to /readyz, and check that nothing acknowledged was lost. It
// returns the rebooted server so the caller's cleanup kills it.
func recoverAndCheck(run *runResult, orc *oracle, srv *server, bin string, w *workload, dataDir string, in *inputs) (*server, error) {
	quiescentCheck(run, orc, srv, in, "end of run")

	t0 := time.Now()
	srv.kill()
	rebooted, err := startServer(bin, w, dataDir)
	if err != nil {
		return nil, fmt.Errorf("reboot after SIGKILL: %w", err)
	}
	run.metrics.set("recovery_s", time.Since(t0).Seconds(), 1)
	quiescentCheck(run, orc, rebooted, in, "after recovery")

	c, err := rebooted.counters()
	if err != nil {
		return rebooted, err
	}
	run.metrics.set("durable.replayed_records", c.replayedRecords, 1)
	run.metrics.set("durable.loaded_entries", c.loadedEntries, 1)

	// disk_amp: bytes on disk after a final snapshot over the bytes of
	// the live rows as the user would write them (CSV).
	if _, err := expect2xx(rebooted.send(op{Kind: opSnapshot})); err != nil {
		return rebooted, fmt.Errorf("final snapshot: %w", err)
	}
	disk, err := dirBytes(dataDir)
	if err != nil {
		return rebooted, err
	}
	var user int
	for _, t := range in.Live {
		user += len(rowsCSV(liveRows(t)))
	}
	run.metrics.set("disk_amp", ratio(float64(disk), float64(user)), 1)
	return rebooted, nil
}
