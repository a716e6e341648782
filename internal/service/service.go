// Package service is the concurrent query-serving subsystem: a long-lived
// Engine owning a named-table catalog, one shared embedding store, a
// bounded prepared-query cache, and an admission controller, so many
// concurrent sessions can run context-enhanced joins against the same
// process safely.
//
// The paper frames context-enhanced joins as a declarative engine feature;
// the batch cmds run one query and exit. This package is the on-ramp from
// that reproduction to a system under sustained traffic:
//
//   - every query shares one embstore.Store, so the E_µ cost that dominates
//     end-to-end time is paid once per distinct input across all sessions;
//   - parse+bind cost is paid once per distinct query text via a
//     generation-validated prepared-plan cache over sqlish.Prepare;
//   - admission control bounds aggregate memory pressure with a weighted
//     semaphore over each query's estimated intermediate footprint
//     (plan.EstimateFootprint), plus a hard cap on concurrently executing
//     queries;
//   - per-query deadlines and cancellation propagate through the executor
//     into the join inner loops, so an abandoned request stops computing
//     within one block/stride boundary;
//   - ServerStats aggregates executor JoinStats, store stats, admission
//     counters, and plan-cache counters into one observability surface;
//   - the steps above are one query lifecycle (Frontend) that the shard
//     router serves through too: a Backend supplies only the plan and run
//     steps that differ between one engine and N shards.
package service

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/feedback"
	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/sqlish"
)

// Config tunes an Engine. The zero value is usable: hash model (dim 100),
// a 256 MiB embedding store, GOMAXPROCS execution slots, a 1 GiB
// admission budget, a 256-entry plan cache, and no default deadline.
type Config struct {
	// Model is the embedding model µ shared by every query; nil builds the
	// deterministic hash embedder with dimensionality Dim.
	Model model.Model
	// Dim is the hash model dimensionality when Model is nil (default 100).
	Dim int
	// Store is the shared embedding store; nil builds one bounded by
	// StoreBytes.
	Store *embstore.Store
	// StoreBytes bounds the built store's resident bytes (default 256 MiB;
	// ignored when Store is set).
	StoreBytes int64
	// MaxConcurrent caps concurrently executing queries (default
	// GOMAXPROCS). Queries past the cap wait for a slot.
	MaxConcurrent int
	// AdmissionBytes is the weighted-semaphore capacity over estimated
	// intermediate bytes (default 1 GiB). A query whose estimate exceeds
	// the whole budget is clamped to it — it runs, but alone.
	AdmissionBytes int64
	// DefaultTimeout bounds each query when the request carries none;
	// 0 means no engine-imposed deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout override, so clients cannot
	// extend their deadline past the operator's bound and camp on an
	// execution slot; 0 means requests may set any timeout.
	MaxTimeout time.Duration
	// PlanCacheSize bounds the prepared-query cache entries (default 256).
	PlanCacheSize int
	// Threads caps each query's operator parallelism; <=0 defaults to
	// GOMAXPROCS/MaxConcurrent (at least 1), so the slots x threads
	// product stays near GOMAXPROCS instead of oversubscribing the CPU
	// quadratically under full admission.
	Threads int
	// CostParams parametrizes the planner; zero value uses defaults.
	CostParams cost.Params
	// DataDir, when non-empty, makes the engine durable: Open recovers
	// tables and cached embeddings from it, the embedding store persists
	// write-behind into it, and ingested tables are written to it. Empty
	// means a memory-only engine (NewEngine ignores this field; use Open).
	DataDir string
	// SegmentBytes rotates embedding log segments past this size
	// (default 64 MiB).
	SegmentBytes int64
	// ExecBlockRows is the executor's probe-side block size
	// (0 = exec.DefaultBlockSize). It trades per-block overhead against
	// resident bytes (admission charges build side + one block); results
	// do not depend on it.
	ExecBlockRows int
	// DisableTracing turns off per-query traces (and with them the
	// slow-query log); an explicit explain request still traces its own
	// query. Latency histograms and counters record regardless.
	DisableTracing bool
	// SlowQueryThreshold gates admission to the slow-query ring: only
	// queries at least this slow are retained. 0 (the default) retains
	// every traced query — the worst-N set is kept regardless.
	SlowQueryThreshold time.Duration
	// CalibrateCost measures this machine's relative access/compare/model
	// costs at engine build (cost.Calibrate — a few microseconds plus 18
	// model calls) and plans with the result instead of CostParams.
	CalibrateCost bool
}

// TableInfo describes one catalog entry.
type TableInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
}

// Engine is a long-lived, concurrency-safe query engine: one per process,
// shared by every session/request handler.
type Engine struct {
	cfg     Config
	model   model.Model
	store   *embstore.Store
	exec    *plan.Executor
	opt     *plan.Optimizer
	catalog *sqlish.Catalog
	// front runs the query lifecycle (see frontend.go) with this engine as
	// its backend.
	front *Frontend

	// durable is non-nil for engines built with Open over a data
	// directory; nil engines are memory-only.
	durable *durableState

	// mut is the live-mutation arm (see mutation.go): per-table MVCC
	// state and (durable engines) the WAL.
	mut mutationState
	// fixedRowIDs marks a shard engine (OpenShard): its tables never
	// compact.
	fixedRowIDs bool

	// feedback is the estimate-vs-observation registry (see feedback.go).
	feedback   *feedback.Registry
	calibrated bool

	counters counters
	// byOperator is the execution pipeline's per-operator self-time
	// histogram family (label: operator name).
	byOperator obs.HistogramVec
}

// NewEngine builds an Engine from cfg (zero value = defaults).
func NewEngine(cfg Config) (*Engine, error) {
	res, err := Resolve(cfg)
	if err != nil {
		return nil, err
	}
	cfg = res.Config
	eng := &Engine{
		cfg:        cfg,
		model:      cfg.Model,
		store:      cfg.Store,
		exec:       res.Exec,
		opt:        res.Opt,
		catalog:    sqlish.NewCatalog(),
		feedback:   feedback.NewRegistry(),
		calibrated: res.Calibrated,
	}
	eng.front = NewFrontend(res, eng.catalog, eng)
	return eng, nil
}

// Model is the engine's shared embedding model.
func (e *Engine) Model() model.Model { return e.model }

// Store is the engine's shared embedding store.
func (e *Engine) Store() *embstore.Store { return e.store }

// Catalog exposes the engine's table catalog (concurrency-safe).
func (e *Engine) Catalog() *sqlish.Catalog { return e.catalog }

// ErrTableExists reports a create-mode ingest against an existing name.
// The HTTP layer maps it to 409 Conflict.
var ErrTableExists = errors.New("service: table already exists")

// ErrPersist marks a durable-write failure (disk full, permissions). The
// in-memory registration already succeeded when this is returned — the
// table serves queries but will not survive a restart — so the HTTP
// layer maps it to 500, not 400.
var ErrPersist = errors.New("service: durable write failed")

// ErrNotDurable reports a durability operation against a memory-only
// engine (no DataDir).
var ErrNotDurable = errors.New("service: engine has no data directory")

// RegisterTable adds or replaces a named table. Registration advances the
// catalog generation, invalidating prepared plans bound to the old table.
// On a durable engine the table is also written to the data directory.
func (e *Engine) RegisterTable(name string, t *relational.Table) error {
	if name == "" {
		return fmt.Errorf("service: empty table name")
	}
	if t == nil {
		return fmt.Errorf("service: nil table %q", name)
	}
	e.catalog.Register(name, t)
	e.installMutable(name, t) // fresh incarnation: replaces any old MVCC state
	e.front.PurgeStalePlans()
	return e.persistTable(name, t)
}

// HasTable reports whether a table is registered under name.
func (e *Engine) HasTable(name string) bool {
	_, ok := e.catalog.Get(name)
	return ok
}

// RegisterCSV parses CSV content under the schema and registers it.
// Create-vs-replace is explicit: with replace false an existing name is
// rejected with ErrTableExists — cheaply before any CSV is read, and
// atomically at registration time, so two concurrent creates of one
// name cannot both succeed (a duplicate POST used to silently re-read
// the whole upload and clobber the table). With replace true the new
// contents take over.
func (e *Engine) RegisterCSV(name string, schema relational.Schema, r io.Reader, replace bool) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("service: empty table name")
	}
	if !replace && e.HasTable(name) {
		return 0, fmt.Errorf("%w: %q (pass replace to overwrite)", ErrTableExists, name)
	}
	t, err := relational.ReadCSV(r, schema)
	if err != nil {
		return 0, err
	}
	if replace {
		err = e.RegisterTable(name, t)
	} else if !e.catalog.RegisterIfAbsent(name, t) {
		// Lost a create-create race after the cheap pre-check.
		err = fmt.Errorf("%w: %q (pass replace to overwrite)", ErrTableExists, name)
	} else {
		e.installMutable(name, t)
		e.front.PurgeStalePlans()
		err = e.persistTable(name, t)
	}
	if err != nil {
		return 0, err
	}
	return t.NumRows(), nil
}

// RegisterCSVWithPrecision is RegisterCSV for callers that still pass a
// precision. It exists only for the repo benchmark's replay, until that
// replay calls RegisterCSV. Every join is exact F32, so only
// quant.PrecisionAuto and quant.PrecisionF32 are accepted; any other
// precision is an error before the CSV is read.
func (e *Engine) RegisterCSVWithPrecision(name string, schema relational.Schema, r io.Reader, replace bool, prec quant.Precision) (int, error) {
	if prec != quant.PrecisionAuto && prec != quant.PrecisionF32 {
		return 0, badRequest(fmt.Errorf("service: precision %s is not served; every join is exact f32", prec))
	}
	return e.RegisterCSV(name, schema, r, replace)
}

// DropTable removes a named table, reporting whether it existed. On a
// durable engine its table file and manifest entry are removed too.
func (e *Engine) DropTable(name string) bool {
	ok := e.catalog.Drop(name)
	if ok {
		e.front.PurgeStalePlans()
		// Learned corrections describe the dropped contents, not the name;
		// a recreated table starts neutral.
		e.feedback.Drop(name)
		// Purge MVCC state with the table: generations, key maps and
		// tombstones must not leak into a recreated same-name table
		// (which gets a fresh incarnation, so the old one's WAL records
		// cannot replay into it either).
		e.release(e.mut.remove(name))
		e.unpersistTable(name)
	}
	return ok
}

// Tables lists the registered tables, sorted by name.
func (e *Engine) Tables() []TableInfo {
	names := e.catalog.Names()
	out := make([]TableInfo, 0, len(names))
	for _, n := range names {
		t, ok := e.catalog.Get(n)
		if !ok {
			continue // dropped between Names and Get
		}
		out = append(out, TableInfo{Name: n, Rows: t.NumRows(), Cols: t.NumCols()})
	}
	return out
}
