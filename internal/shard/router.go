package shard

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/feedback"
	"ejoin/internal/model"
	"ejoin/internal/mutation"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/sqlish"
)

// Config tunes a Router.
type Config struct {
	// Shards is the number of in-process engine shards (default 1).
	Shards int
	// Partitioner selects row placement: "hash" (default) or "centroid".
	Partitioner string
	// Engine configures the router's query lifecycle and, once resolved
	// (service.Resolve), every shard engine. Its DataDir, when set, is the
	// ROUTER's root: the manifest lives there and each shard gets
	// DataDir/shard-NN. Model and Store, when nil, are built once and
	// shared across every shard (see the package comment's sharing audit).
	Engine service.Config
}

// Router owns N service.Engine shards behind the same operational
// surface an Engine exposes: ingest, mutations, queries, stats, metrics,
// snapshots. Engines provide storage, mutation durability, and per-shard
// accounting. Queries run through the same service.Frontend an Engine
// serves through, bound against a schema-only catalog; the router is its
// Backend (query.go), so shard engines' own query counters stay zero.
type Router struct {
	nshards int
	shards  []*service.Engine
	model   model.Model
	store   *embstore.Store
	part    Partitioner
	dataDir string

	front      *service.Frontend
	exec       *plan.Executor
	opt        *plan.Optimizer
	cat        *sqlish.Catalog // schema-only empty tables, for binding
	calibrated bool

	mu     sync.Mutex // serializes mutations and manifest writes
	tables map[string]*tableMeta

	counters routerCounters
	// byShard is the per-probe-shard stream latency within fan-outs.
	byShard obs.HistogramVec
}

// routerCounters is the fan-out's own accounting; the query lifecycle
// counts queries in the Frontend, and engines count their mutations.
type routerCounters struct {
	fanoutQueries atomic.Int64
	fanoutPairs   atomic.Int64
	truncated     atomic.Int64
	mergeWaitNS   atomic.Int64
}

// Open builds the router and its shards. With Engine.DataDir set every
// shard opens durably (WAL replay included) before Open returns, so a
// server that publishes the router afterwards gets /readyz gating for
// free; rowmaps are then reconciled against the recovered shards.
func Open(cfg Config) (*Router, error) {
	n := max(cfg.Shards, 1)
	// One resolution per process: the shared model and store, every
	// default, and the cost calibration the router plans with. The shards
	// get the resolved config, so they neither rebuild nor re-measure it.
	res, err := service.Resolve(cfg.Engine)
	if err != nil {
		return nil, err
	}
	ecfg := res.Config
	// Orientation is one global decision (query.go); a per-pair re-swap
	// would break stream merging.
	res.Opt.DisableReorder = true
	r := &Router{
		nshards:    n,
		model:      ecfg.Model,
		store:      ecfg.Store,
		dataDir:    ecfg.DataDir,
		exec:       res.Exec,
		opt:        res.Opt,
		cat:        sqlish.NewCatalog(),
		calibrated: res.Calibrated,
		tables:     make(map[string]*tableMeta),
	}
	r.front = service.NewFrontend(res, r.cat, r)

	hash := &hashPartitioner{shards: n}
	switch cfg.Partitioner {
	case "", "hash":
		r.part = hash
	case "centroid":
		r.part = &centroidPartitioner{shards: n, model: r.model, store: r.store, hash: hash}
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %q (want hash or centroid)", cfg.Partitioner)
	}

	// Boot every shard (durable shards replay their WALs here).
	for i := 0; i < n; i++ {
		scfg := ecfg
		if r.dataDir != "" {
			scfg.DataDir = filepath.Join(r.dataDir, fmt.Sprintf("shard-%02d", i))
		}
		var (
			eng *service.Engine
			err error
		)
		if scfg.DataDir != "" {
			eng, err = service.Open(scfg)
		} else {
			eng, err = service.NewEngine(scfg)
		}
		if err != nil {
			for _, e := range r.shards {
				e.Close()
			}
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		r.shards = append(r.shards, eng)
	}

	if err := r.recover(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// recover reconciles the manifest's rowmaps against the shards'
// recovered tables: tails the shards lost to a crash are trimmed, and a
// table any shard is missing (torn ingest: manifest written, some shard
// registrations lost) is dropped everywhere rather than served with
// misassigned global ids.
func (r *Router) recover() error {
	if r.dataDir == "" {
		return nil
	}
	m, err := loadManifest(r.dataDir)
	if err != nil {
		return err
	}
	if m == nil {
		return r.saveManifest()
	}
	if m.Shards != r.nshards {
		return fmt.Errorf("shard: manifest has %d shards, router configured with %d", m.Shards, r.nshards)
	}
	if m.Partitioner != r.part.Kind() {
		return fmt.Errorf("shard: manifest partitioner %q, router configured with %q", m.Partitioner, r.part.Kind())
	}
	changed := false
	for name, tman := range m.Tables {
		if len(tman.RowMaps) != r.nshards {
			changed = true
			r.dropEverywhere(name)
			continue
		}
		tm := &tableMeta{
			rowmap:       tman.RowMaps,
			centroids:    tman.Centroids,
			hashFallback: tman.HashFallback,
		}
		for s := range tm.rowmap {
			if tm.rowmap[s] == nil {
				tm.rowmap[s] = []int{}
			}
		}
		torn := false
		for s, eng := range r.shards {
			pt, ok := eng.PinnedTable(name)
			if !ok {
				torn = true
				break
			}
			if phys := pt.Table.NumRows(); phys < len(tm.rowmap[s]) {
				// The manifest promised rows this shard never durably got.
				tm.rowmap[s] = tm.rowmap[s][:phys]
				changed = true
			} else if phys > len(tm.rowmap[s]) {
				// Rows exist with no global id — only possible if a newer
				// manifest write was lost, which AtomicWriteFile prevents.
				return fmt.Errorf("shard: table %q shard %d has %d rows but manifest maps %d", name, s, phys, len(tm.rowmap[s]))
			}
		}
		if torn {
			changed = true
			r.dropEverywhere(name)
			continue
		}
		tm.rebuildLocs()
		if tm.next < tman.NextGlobal {
			// Keep the high-water mark: trimmed gids are never reissued.
			tm.next = tman.NextGlobal
		}
		pt, _ := r.shards[0].PinnedTable(name)
		tm.schema = pt.Table.Schema()
		r.tables[canonical(name)] = tm
		r.cat.Register(name, emptySchemaTable(tm.schema))
	}
	if changed {
		return r.saveManifest()
	}
	return nil
}

// dropEverywhere removes a table from every shard without touching
// router metadata (recovery-path helper).
func (r *Router) dropEverywhere(name string) {
	for _, eng := range r.shards {
		eng.DropTable(name)
	}
}

func canonical(name string) string { return strings.ToLower(name) }

// emptySchemaTable builds a zero-row table with the given schema — the
// router catalog's binding stand-in (predicates and join columns bind by
// name and type, which is all sqlish needs).
func emptySchemaTable(schema relational.Schema) *relational.Table {
	cols := make([]relational.Column, len(schema))
	for i, f := range schema {
		switch f.Type {
		case relational.Int64:
			cols[i] = relational.Int64Column{}
		case relational.Float64:
			cols[i] = relational.Float64Column{}
		case relational.String:
			cols[i] = relational.StringColumn{}
		case relational.Time:
			cols[i] = relational.TimeColumn{}
		case relational.Bool:
			cols[i] = relational.BoolColumn{}
		case relational.Vector:
			cols[i] = &relational.VectorColumn{Dim: 1}
		}
	}
	t, err := relational.NewTable(schema, cols)
	if err != nil {
		panic("shard: building empty schema table: " + err.Error())
	}
	return t
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.nshards }

// PartitionerKind returns the active partitioner's name.
func (r *Router) PartitionerKind() string { return r.part.Kind() }

// Close closes every shard engine.
func (r *Router) Close() error {
	var first error
	for _, eng := range r.shards {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RegisterCSVWithPrecision parses CSV content under the schema, assigns
// every row a global id in file order, partitions the rows across
// shards, and registers each shard's slice. The manifest (routing state)
// is written before the shard registrations — a crash in between leaves
// a torn table that recovery drops everywhere.
func (r *Router) RegisterCSVWithPrecision(name string, schema relational.Schema, rd io.Reader, replace bool, prec quant.Precision) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("shard: empty table name")
	}
	if err := service.ValidateScanPrecision(prec); err != nil {
		return 0, err
	}
	t, err := relational.ReadCSV(rd, schema)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.tables[canonical(name)]; exists && !replace {
		return 0, fmt.Errorf("%w: %q (pass replace to overwrite)", service.ErrTableExists, name)
	}

	tm := &tableMeta{schema: schema, rowmap: make([][]int, r.nshards)}
	for s := range tm.rowmap {
		tm.rowmap[s] = []int{}
	}
	if err := r.part.Fit(ctx, tm, t); err != nil {
		return 0, fmt.Errorf("shard: fitting partitioner for %q: %w", name, err)
	}
	owners, err := r.part.Owners(ctx, tm, t)
	if err != nil {
		return 0, fmt.Errorf("shard: partitioning %q: %w", name, err)
	}
	parts := make([]relational.Selection, r.nshards)
	for i, s := range owners {
		tm.rowmap[s] = append(tm.rowmap[s], i)
		parts[s] = append(parts[s], i)
	}
	tm.rebuildLocs()

	// Write-ahead: routing state first, then the shard registrations it
	// describes.
	old := r.tables[canonical(name)]
	r.tables[canonical(name)] = tm
	if err := r.saveManifest(); err != nil {
		if old != nil {
			r.tables[canonical(name)] = old
		} else {
			delete(r.tables, canonical(name))
		}
		return 0, err
	}
	for s, eng := range r.shards {
		part, err := t.Select(parts[s])
		if err != nil {
			return 0, fmt.Errorf("shard: slicing %q for shard %d: %w", name, s, err)
		}
		if err := eng.RegisterTable(name, part); err != nil {
			return 0, fmt.Errorf("shard: registering %q on shard %d: %w", name, s, err)
		}
		if prec != quant.PrecisionAuto {
			if err := eng.SetTablePrecision(name, prec); err != nil {
				return 0, err
			}
		}
	}
	r.cat.Register(name, emptySchemaTable(schema))
	r.front.PurgeStalePlans()
	return t.NumRows(), nil
}

// UpsertRows routes each batch row to its owning shard, applies the
// owner sub-batches, then fans migration deletes of every batch key to
// all non-owner shards — a key that moved shards (or whose routing
// column changed) must not survive twice. Aggregated counts match an
// unsharded engine's exactly: Replaced = Σ owner-replaced + Σ
// migration-deleted.
func (r *Router) UpsertRows(ctx context.Context, name, keyCol string, batch *relational.Table) (service.MutationResult, error) {
	if batch == nil {
		return service.MutationResult{}, service.MarkBadRequest(fmt.Errorf("shard: nil upsert batch"))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tm, ok := r.tables[canonical(name)]
	if !ok {
		return service.MutationResult{}, service.MarkBadRequest(fmt.Errorf("shard: unknown table %q", name))
	}
	ki := batch.Schema().IndexOf(keyCol)
	if ki < 0 {
		return service.MutationResult{}, service.MarkBadRequest(fmt.Errorf("shard: batch has no key column %q", keyCol))
	}
	keys := make([]string, batch.NumRows())
	for i := range keys {
		k, err := mutation.KeyString(batch.ColumnAt(ki), i)
		if err != nil {
			return service.MutationResult{}, service.MarkBadRequest(err)
		}
		keys[i] = k
	}
	owners, err := r.part.Owners(ctx, tm, batch)
	if err != nil {
		return service.MutationResult{}, fmt.Errorf("shard: partitioning upsert batch: %w", err)
	}

	// finalOwner is where each key lives after the batch (later rows win).
	finalOwner := make(map[string]int, len(keys))
	for i, k := range keys {
		finalOwner[k] = owners[i]
	}
	// Global ids in batch order; per-shard sub-batches preserve it, so
	// each shard's physical append order matches its rowmap append order.
	parts := make([]relational.Selection, r.nshards)
	base := tm.next
	for i, s := range owners {
		parts[s] = append(parts[s], i)
		tm.rowmap[s] = append(tm.rowmap[s], base+i)
		for len(tm.locs) <= base+i {
			tm.locs = append(tm.locs, loc{shard: -1})
		}
		tm.locs[base+i] = loc{shard: int32(s), local: int32(len(tm.rowmap[s]) - 1)}
	}
	tm.next = base + batch.NumRows()

	if err := r.saveManifest(); err != nil {
		// Roll the routing state back; no shard was touched yet.
		tm.rowmap = rollbackRowmaps(tm.rowmap, parts)
		tm.locs = tm.locs[:base]
		tm.next = base
		return service.MutationResult{}, err
	}

	out := service.MutationResult{Table: canonical(name), Upserted: batch.NumRows()}
	for s, eng := range r.shards {
		if len(parts[s]) == 0 {
			continue
		}
		sub, err := batch.Select(parts[s])
		if err != nil {
			return service.MutationResult{}, fmt.Errorf("shard: slicing upsert batch for shard %d: %w", s, err)
		}
		res, err := eng.UpsertRows(ctx, name, keyCol, sub)
		if err != nil {
			return service.MutationResult{}, err
		}
		out.Replaced += res.Replaced
		if res.Gen > out.Gen {
			out.Gen = res.Gen
		}
	}
	// Migration deletes: every batch key vanishes from every shard except
	// its final owner. Keys are deduplicated per target shard; deletions
	// of keys that never lived there count as Missing locally and are
	// exactly the rows an unsharded upsert would have replaced in place.
	for s, eng := range r.shards {
		var migrate []string
		seen := make(map[string]bool)
		for _, k := range keys {
			if finalOwner[k] != s && !seen[k] {
				seen[k] = true
				migrate = append(migrate, k)
			}
		}
		if len(migrate) == 0 {
			continue
		}
		res, err := eng.DeleteRows(ctx, name, keyCol, migrate)
		if err != nil {
			return service.MutationResult{}, err
		}
		out.Replaced += res.Deleted
		if res.Gen > out.Gen {
			out.Gen = res.Gen
		}
	}
	out.LiveRows = r.liveRowsLocked(name)
	return out, nil
}

// rollbackRowmaps undoes the per-shard tail appends of a failed upsert.
func rollbackRowmaps(rowmap [][]int, parts []relational.Selection) [][]int {
	for s := range rowmap {
		rowmap[s] = rowmap[s][:len(rowmap[s])-len(parts[s])]
	}
	return rowmap
}

// UpsertCSV parses CSV rows under the table's schema and upserts them.
func (r *Router) UpsertCSV(ctx context.Context, name, keyCol string, rd io.Reader) (service.MutationResult, error) {
	r.mu.Lock()
	tm, ok := r.tables[canonical(name)]
	r.mu.Unlock()
	if !ok {
		return service.MutationResult{}, service.MarkBadRequest(fmt.Errorf("shard: unknown table %q", name))
	}
	batch, err := relational.ReadCSV(rd, tm.schema)
	if err != nil {
		return service.MutationResult{}, service.MarkBadRequest(err)
	}
	return r.UpsertRows(ctx, name, keyCol, batch)
}

// DeleteRows fans the whole key list to every shard (any shard may hold
// any key's live row); Missing is keys no shard had.
func (r *Router) DeleteRows(ctx context.Context, name, keyCol string, keys []string) (service.MutationResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tables[canonical(name)]; !ok {
		return service.MutationResult{}, service.MarkBadRequest(fmt.Errorf("shard: unknown table %q", name))
	}
	out := service.MutationResult{Table: canonical(name)}
	for _, eng := range r.shards {
		res, err := eng.DeleteRows(ctx, name, keyCol, keys)
		if err != nil {
			return service.MutationResult{}, err
		}
		out.Deleted += res.Deleted
		if res.Gen > out.Gen {
			out.Gen = res.Gen
		}
	}
	out.Missing = len(keys) - out.Deleted
	out.LiveRows = r.liveRowsLocked(name)
	return out, nil
}

// liveRowsLocked sums the table's live (visible) rows across shards.
func (r *Router) liveRowsLocked(name string) int {
	total := 0
	for _, eng := range r.shards {
		pt, ok := eng.PinnedTable(name)
		if !ok {
			continue
		}
		if pt.Visible != nil {
			total += len(pt.Visible)
		} else {
			total += pt.Table.NumRows()
		}
	}
	return total
}

// DropTable removes the table from every shard and the routing state.
func (r *Router) DropTable(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, existed := r.tables[canonical(name)]
	if !existed {
		return false
	}
	delete(r.tables, canonical(name))
	r.cat.Drop(name)
	r.front.PurgeStalePlans()
	for _, eng := range r.shards {
		eng.DropTable(name)
	}
	// Best-effort: routing state for a dropped table is garbage either way.
	_ = r.saveManifest()
	return true
}

// HasTable reports whether the router routes the named table.
func (r *Router) HasTable(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.tables[canonical(name)]
	return ok
}

// Tables lists routed tables with cross-shard aggregated row counts.
func (r *Router) Tables() []service.TableInfo {
	r.mu.Lock()
	names := make([]string, 0, len(r.tables))
	for n := range r.tables {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]service.TableInfo, 0, len(names))
	for _, n := range names {
		info := service.TableInfo{Name: n, Precision: r.shards[0].TablePrecision(n).String()}
		for _, eng := range r.shards {
			for _, ti := range eng.Tables() {
				if ti.Name == n {
					info.Rows += ti.Rows
					info.Cols = ti.Cols
				}
			}
		}
		out = append(out, info)
	}
	return out
}

// SetTablePrecision fans the knob to every shard.
func (r *Router) SetTablePrecision(name string, p quant.Precision) error {
	if !r.HasTable(name) {
		return fmt.Errorf("shard: unknown table %q", name)
	}
	for _, eng := range r.shards {
		if err := eng.SetTablePrecision(name, p); err != nil {
			return err
		}
	}
	return nil
}

// RouterSnapshot aggregates per-shard snapshot results.
type RouterSnapshot struct {
	Shards []service.SnapshotInfo `json:"shards"`
}

// Snapshot checkpoints every shard (durable routers only).
func (r *Router) Snapshot() (RouterSnapshot, error) {
	if r.dataDir == "" {
		return RouterSnapshot{}, fmt.Errorf("%w: snapshot requires Open with DataDir", service.ErrNotDurable)
	}
	var out RouterSnapshot
	for i, eng := range r.shards {
		info, err := eng.Snapshot()
		if err != nil {
			return out, fmt.Errorf("shard: snapshotting shard %d: %w", i, err)
		}
		out.Shards = append(out.Shards, info)
	}
	return out, nil
}

// SlowQueries snapshots the router's slow-query log (router queries are
// traced at the router, not in shard engines).
func (r *Router) SlowQueries() obs.SlowLogDump { return r.front.SlowQueries() }

// CostParams is the parameter set the router plans with (after
// validation and optional calibration) — logged at server boot.
func (r *Router) CostParams() cost.Params { return r.opt.Params }

// Calibrated reports whether CostParams came from cost.Calibrate.
func (r *Router) Calibrated() bool { return r.calibrated }

// FeedbackDump returns an empty feedback dump: the router plans without
// runtime cardinality feedback (its per-pair estimates sum per-shard
// exact selectivities, which the feedback loop exists to approximate).
func (r *Router) FeedbackDump() feedback.Dump { return feedback.Dump{} }

// RouterStats is the router's observability surface: the query
// lifecycle's counters under the keys an Engine reports them, fan-out
// accounting, and every shard's full ServerStats, deterministically
// ordered.
type RouterStats struct {
	Shards      int    `json:"shards"`
	Partitioner string `json:"partitioner"`
	service.QueryStats
	// FanoutQueries counts scatter-gather executions; FanoutPairs the
	// probe-shard x build-shard streams they opened.
	FanoutQueries int64 `json:"fanout_queries"`
	FanoutPairs   int64 `json:"fanout_pairs"`
	// TruncatedQueries counts merges a LIMIT short-circuited.
	TruncatedQueries int64 `json:"truncated_queries"`
	// MergeWait is cumulative time the merger spent blocked on shard
	// streams (scatter latency the gather could not hide).
	MergeWait time.Duration `json:"merge_wait_ns"`
	// PartitionSkew is max/mean of per-shard assigned rows across all
	// tables (1 = perfectly even; 0 = no rows).
	PartitionSkew float64 `json:"partition_skew"`
	// PerShard is each shard engine's own stats, in shard order.
	PerShard []service.ServerStats `json:"per_shard"`
}

// Stats snapshots the router and every shard.
func (r *Router) Stats() RouterStats {
	c := &r.counters
	st := RouterStats{
		Shards:           r.nshards,
		Partitioner:      r.part.Kind(),
		QueryStats:       r.front.QueryStats(),
		FanoutQueries:    c.fanoutQueries.Load(),
		FanoutPairs:      c.fanoutPairs.Load(),
		TruncatedQueries: c.truncated.Load(),
		MergeWait:        time.Duration(c.mergeWaitNS.Load()),
		PartitionSkew:    r.partitionSkew(),
	}
	for _, eng := range r.shards {
		st.PerShard = append(st.PerShard, eng.Stats())
	}
	return st
}

// partitionSkew is max/mean of per-shard assigned rows over all tables.
func (r *Router) partitionSkew() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	perShard := make([]int, r.nshards)
	total := 0
	for _, tm := range r.tables {
		for s, n := range tm.assigned() {
			perShard[s] += n
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	max := 0
	for _, n := range perShard {
		if n > max {
			max = n
		}
	}
	mean := float64(total) / float64(r.nshards)
	return float64(max) / mean
}

// shardRows is each shard's assigned row total (metrics gauge).
func (r *Router) shardRows() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, r.nshards)
	for _, tm := range r.tables {
		for s, n := range tm.assigned() {
			out[s] += n
		}
	}
	return out
}

// WriteMetrics renders the router's ejoin_shard_* metric families plus
// the per-shard latency histogram. Shard engines' families are NOT
// concatenated here — duplicate family names would corrupt the
// exposition; per-shard engine detail lives in /stats.
func (r *Router) WriteMetrics(w io.Writer) error {
	st := r.Stats()
	mw := obs.NewMetricsWriter(w)

	mw.Gauge("ejoin_shard_count", "Number of in-process engine shards.", float64(st.Shards))
	mw.Gauge("ejoin_shard_uptime_seconds", "Seconds since the shard router was built.", st.Uptime.Seconds())
	mw.Counter("ejoin_shard_queries_total", "Queries served by the shard router.", float64(st.Queries))
	mw.Counter("ejoin_shard_query_errors_total", "Router queries that failed.", float64(st.Errors))
	mw.Counter("ejoin_shard_queries_rejected_total", "Router queries whose context ended while waiting for admission.", float64(st.Rejected))
	mw.Counter("ejoin_shard_admission_waits_total", "Router queries that queued for a slot or byte budget.", float64(st.AdmissionWaits))
	mw.Gauge("ejoin_shard_in_flight_queries", "Router queries currently executing.", float64(st.InFlight))
	mw.Gauge("ejoin_shard_admitted_bytes", "Summed per-pair footprint currently held.", float64(st.AdmittedBytes))
	mw.Counter("ejoin_shard_fanout_queries_total", "Scatter-gather executions.", float64(st.FanoutQueries))
	mw.Counter("ejoin_shard_fanout_pairs_total", "Probe-shard x build-shard streams opened by fan-outs.", float64(st.FanoutPairs))
	mw.Counter("ejoin_shard_truncated_queries_total", "Router merges a LIMIT short-circuited.", float64(st.TruncatedQueries))
	mw.Counter("ejoin_shard_merge_wait_seconds_total", "Cumulative merger time blocked on shard streams.", st.MergeWait.Seconds())
	mw.Gauge("ejoin_shard_partition_skew", "Max/mean per-shard assigned rows across tables (1 = even).", st.PartitionSkew)

	rows := r.shardRows()
	mw.Family("ejoin_shard_rows", "gauge", "Assigned rows per shard across tables.")
	for s, n := range rows {
		mw.Sample("ejoin_shard_rows", []string{"shard", fmt.Sprintf("%d", s)}, float64(n))
	}

	mw.Histogram("ejoin_shard_query_duration_seconds",
		"End-to-end latency of router-served queries.", r.front.Latency())
	mw.HistogramVec("ejoin_shard_pair_duration_seconds",
		"Per-shard stream latency within fan-outs.", "shard", &r.byShard)
	return mw.Err()
}
