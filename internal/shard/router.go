package shard

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/core"
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
	"ejoin/internal/vec"
)

// Config tunes a Router.
type Config struct {
	// Shards is the number of in-process engine shards (default 1).
	Shards int
	// Partitioner selects row placement: "hash" (default) or "centroid".
	Partitioner string
	// Engine is the per-shard engine template. Its DataDir, when set, is
	// the ROUTER's root: the manifest lives there and each shard gets
	// DataDir/shard-NN. Model and Store, when nil, are built once and
	// shared across every shard (see the package comment's sharing audit).
	Engine service.Config
}

// Router owns N service.Engine shards behind the same operational
// surface an Engine exposes: ingest, mutations, scatter-gather queries,
// stats, metrics, snapshots. Engines provide storage, mutation
// durability, and per-shard accounting; query planning and execution
// run in the router itself over pinned per-shard snapshots, so shard
// engines' own query counters stay zero.
type Router struct {
	cfg     Config
	nshards int
	shards  []*service.Engine
	model   model.Model
	store   *embstore.Store
	part    Partitioner
	dataDir string
	// noReorder is the operator's original DisableReorder setting. The
	// router always disables per-pair reordering (orientation must be one
	// global decision or streams could not merge), so the config field is
	// overwritten; the router's own swap rule honors this saved value.
	noReorder bool

	exec  *plan.Executor
	opt   *plan.Optimizer
	cat   *sqlish.Catalog // schema-only empty tables, for binding
	plans *routerPlanCache
	slots chan struct{}
	bytes *byteSemaphore

	mu     sync.Mutex // serializes mutations and manifest writes
	tables map[string]*tableMeta

	counters routerCounters
	obs      routerObs
	start    time.Time
}

// routerCounters is the router's own accounting (engines count their
// mutations; the router counts queries — it executes them).
type routerCounters struct {
	queries        atomic.Int64
	errors         atomic.Int64
	rejected       atomic.Int64
	admissionWaits atomic.Int64
	inFlight       atomic.Int64
	fanoutQueries  atomic.Int64
	fanoutPairs    atomic.Int64
	truncated      atomic.Int64
	mergeWaitNS    atomic.Int64

	mu         sync.Mutex
	join       core.Stats
	strategies map[string]int64
}

type routerObs struct {
	latency obs.Histogram
	byShard obs.HistogramVec
	slow    *obs.SlowLog
	traced  atomic.Int64
}

// Open builds the router and its shards. With Engine.DataDir set every
// shard opens durably (WAL replay included) before Open returns, so a
// server that publishes the router afterwards gets /readyz gating for
// free; rowmaps are then reconciled against the recovered shards.
func Open(cfg Config) (*Router, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	ecfg := cfg.Engine

	// Shared embedding stack, built exactly as NewEngine would.
	if ecfg.Dim <= 0 {
		ecfg.Dim = 100
	}
	m := ecfg.Model
	if m == nil {
		hm, err := model.NewHashEmbedder(ecfg.Dim)
		if err != nil {
			return nil, fmt.Errorf("shard: building default model: %w", err)
		}
		m = hm
	}
	store := ecfg.Store
	if store == nil {
		if ecfg.StoreBytes <= 0 {
			ecfg.StoreBytes = 256 << 20
		}
		store = embstore.New(embstore.Config{MaxBytes: ecfg.StoreBytes})
	}
	ecfg.Model, ecfg.Store = m, store
	// The router makes the one global orientation decision; per-shard
	// re-swaps would break stream merging.
	ecfg.DisableReorder = true

	// Router-level execution defaults mirror NewEngine's resolution.
	if ecfg.MaxConcurrent <= 0 {
		ecfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if ecfg.Threads <= 0 {
		ecfg.Threads = runtime.GOMAXPROCS(0) / ecfg.MaxConcurrent
		if ecfg.Threads < 1 {
			ecfg.Threads = 1
		}
	}
	if ecfg.AdmissionBytes <= 0 {
		ecfg.AdmissionBytes = 1 << 30
	}
	if ecfg.PlanCacheSize <= 0 {
		ecfg.PlanCacheSize = 256
	}
	if ecfg.CostParams.Validate() != nil {
		ecfg.CostParams = cost.DefaultParams()
	}
	if ecfg.Kernel == vec.KernelScalar {
		ecfg.Kernel = vec.DefaultKernel()
	}

	r := &Router{
		cfg:       cfg,
		nshards:   n,
		model:     m,
		store:     store,
		dataDir:   ecfg.DataDir,
		noReorder: cfg.Engine.DisableReorder,
		cat:       sqlish.NewCatalog(),
		plans:     newRouterPlanCache(ecfg.PlanCacheSize),
		slots:     make(chan struct{}, ecfg.MaxConcurrent),
		bytes:     newByteSemaphore(ecfg.AdmissionBytes),
		tables:    make(map[string]*tableMeta),
		start:     time.Now(),
	}
	r.cfg.Engine = ecfg
	r.obs.slow = obs.NewSlowLog(ecfg.SlowLogSize, ecfg.SlowLogWorst, ecfg.SlowQueryThreshold)

	hash := &hashPartitioner{shards: n}
	switch cfg.Partitioner {
	case "", "hash":
		r.part = hash
	case "centroid":
		r.part = &centroidPartitioner{shards: n, model: m, store: store, hash: hash}
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %q (want hash or centroid)", cfg.Partitioner)
	}

	r.exec = &plan.Executor{
		Options: core.Options{
			Kernel:  ecfg.Kernel,
			Threads: ecfg.Threads,
		},
		Store:     store,
		BlockRows: ecfg.ExecBlockRows,
	}
	r.opt = &plan.Optimizer{
		Params:         ecfg.CostParams,
		Store:          store,
		ForceStrategy:  ecfg.ForceStrategy,
		DisableReorder: true,
	}
	if ecfg.PrecisionSlack > 0 {
		r.opt.PrecisionSlack = ecfg.PrecisionSlack
		r.opt.MemoryBudget = ecfg.AdmissionBytes
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
	r.plans.purge()
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
	r.plans.purge()
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

// joinPrecision mirrors the engine's coarser-wins merge of the two
// sides' declared precisions. Knobs are fanned identically to every
// shard, so shard 0 is authoritative.
func (r *Router) joinPrecision(leftTable, rightTable string) quant.Precision {
	l, rr := r.shards[0].TablePrecision(leftTable), r.shards[0].TablePrecision(rightTable)
	if l == quant.PrecisionAuto && rr == quant.PrecisionAuto {
		return quant.PrecisionAuto
	}
	lr, rrr := precRank(l), precRank(rr)
	if rrr > lr {
		return rr
	}
	if l == quant.PrecisionAuto {
		return rr
	}
	return l
}

func precRank(p quant.Precision) int {
	switch p {
	case quant.PrecisionF16:
		return 1
	case quant.PrecisionInt8:
		return 2
	default:
		return 0
	}
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
func (r *Router) SlowQueries() obs.SlowLogDump { return r.obs.slow.Dump() }

// FeedbackDump returns an empty feedback dump: the router plans without
// runtime cardinality feedback (its per-pair estimates sum per-shard
// exact selectivities, which the feedback loop exists to approximate).
func (r *Router) FeedbackDump() feedback.Dump { return feedback.Dump{} }

// startTrace mirrors the engine's tracing gate for router queries.
func (r *Router) startTrace(ctx context.Context, label string, force bool) (*obs.Trace, context.Context) {
	if r.cfg.Engine.DisableTracing && !force {
		return nil, ctx
	}
	tr := obs.NewTrace(obs.RequestIDFrom(ctx), label)
	r.obs.traced.Add(1)
	return tr, obs.NewContext(ctx, tr)
}

func (r *Router) finishTrace(tr *obs.Trace, strategy, precision string, err error, pl *obs.NodeStats) *obs.TraceSnapshot {
	if tr == nil {
		return nil
	}
	if err == nil && pl == nil && !r.obs.slow.Keeps(tr.Since()) {
		return nil
	}
	snap := tr.Finish(strategy, precision, err, pl)
	r.obs.slow.Record(snap)
	return snap
}

// RouterStats is the router's observability surface: fan-out accounting
// plus every shard's full ServerStats, deterministically ordered.
type RouterStats struct {
	Shards         int           `json:"shards"`
	Partitioner    string        `json:"partitioner"`
	Uptime         time.Duration `json:"uptime_ns"`
	Queries        int64         `json:"queries"`
	Errors         int64         `json:"errors"`
	Rejected       int64         `json:"rejected"`
	InFlight       int64         `json:"in_flight"`
	AdmissionWaits int64         `json:"admission_waits"`
	AdmittedBytes  int64         `json:"admitted_bytes"`
	// AdmissionWaiting is the number of fan-outs queued right now.
	AdmissionWaiting int   `json:"admission_waiting"`
	PlanCacheHits    int64 `json:"plan_cache_hits"`
	PlanCacheMisses  int64 `json:"plan_cache_misses"`
	PlanCacheEntries int   `json:"plan_cache_entries"`
	Tables           int   `json:"tables"`
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
	// Join is the cumulative executor work across router-served queries.
	Join core.Stats `json:"join"`
	// Strategies counts executions per physical strategy ("mixed" when a
	// fan-out's pairs disagreed).
	Strategies map[string]int64 `json:"strategies,omitempty"`
	// PerShard is each shard engine's own stats, in shard order.
	PerShard []service.ServerStats `json:"per_shard"`
}

// Stats snapshots the router and every shard.
func (r *Router) Stats() RouterStats {
	c := &r.counters
	hits, misses, entries := r.plans.snapshot()
	st := RouterStats{
		Shards:           r.nshards,
		Partitioner:      r.part.Kind(),
		Uptime:           time.Since(r.start),
		Queries:          c.queries.Load(),
		Errors:           c.errors.Load(),
		Rejected:         c.rejected.Load(),
		InFlight:         c.inFlight.Load(),
		AdmissionWaits:   c.admissionWaits.Load(),
		AdmittedBytes:    r.bytes.InUse(),
		AdmissionWaiting: r.bytes.Waiting(),
		PlanCacheHits:    hits,
		PlanCacheMisses:  misses,
		PlanCacheEntries: entries,
		FanoutQueries:    c.fanoutQueries.Load(),
		FanoutPairs:      c.fanoutPairs.Load(),
		TruncatedQueries: c.truncated.Load(),
		MergeWait:        time.Duration(c.mergeWaitNS.Load()),
		PartitionSkew:    r.partitionSkew(),
	}
	r.mu.Lock()
	st.Tables = len(r.tables)
	r.mu.Unlock()
	c.mu.Lock()
	st.Join = c.join
	if len(c.strategies) > 0 {
		st.Strategies = make(map[string]int64, len(c.strategies))
		for k, v := range c.strategies {
			st.Strategies[k] = v
		}
	}
	c.mu.Unlock()
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

// recordExecution folds one fan-out's aggregate work into the counters.
func (r *Router) recordExecution(strategy string, s core.Stats) {
	c := &r.counters
	c.mu.Lock()
	defer c.mu.Unlock()
	c.join.Add(s)
	if c.strategies == nil {
		c.strategies = make(map[string]int64)
	}
	c.strategies[strategy]++
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
		"End-to-end latency of router-served queries.", &r.obs.latency)
	mw.HistogramVec("ejoin_shard_pair_duration_seconds",
		"Per-shard stream latency within fan-outs.", "shard", &r.obs.byShard)
	return mw.Err()
}

// routerPlanCache is a bounded text->prepared cache validated against
// the router catalog's generation (a simplified clone of the engine's
// unexported planCache).
type routerPlanCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*sqlish.Prepared
	order   []string

	hits, misses int64
}

func newRouterPlanCache(max int) *routerPlanCache {
	return &routerPlanCache{max: max, entries: make(map[string]*sqlish.Prepared)}
}

func (c *routerPlanCache) get(text string, gen uint64) (*sqlish.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.entries[text]
	if !ok || p.Generation() != gen {
		if ok {
			delete(c.entries, text)
		}
		c.misses++
		return nil, false
	}
	c.hits++
	return p, true
}

func (c *routerPlanCache) put(text string, p *sqlish.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[text]; !ok {
		c.order = append(c.order, text)
	}
	c.entries[text] = p
	for len(c.entries) > c.max && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
	}
}

func (c *routerPlanCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*sqlish.Prepared)
	c.order = nil
}

func (c *routerPlanCache) snapshot() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
