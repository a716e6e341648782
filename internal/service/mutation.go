package service

// Live mutation: row-level upsert/delete against registered tables, with
// WAL-first durability, MVCC snapshots for readers, and incremental index
// maintenance. The engine-side state here orchestrates the mutation
// package: one mutation.Table per catalog entry, an optional vector index
// per table, and the shared WAL on durable engines.

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"ejoin/internal/embstore"
	"ejoin/internal/ivf"
	"ejoin/internal/mat"
	"ejoin/internal/mutation"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
	"ejoin/internal/vindex"
)

// mutationState is the engine's live-update arm.
type mutationState struct {
	// mu orders mutations against checkpoints: mutations hold it shared,
	// Snapshot holds it exclusively across checkpoint+WAL-truncate so no
	// record can land between "folded into table files" and "log reset"
	// (it would be discarded unapplied).
	mu     sync.RWMutex
	tables sync.Map // canonical name -> *tableState

	// wal is non-nil on durable engines.
	wal *mutation.WAL

	upserts, deletes         atomic.Int64
	upsertedRows, deleted    atomic.Int64
	replaced                 atomic.Int64
	replayed, replaySkipped  atomic.Int64
	checkpoints, reclustered atomic.Int64
}

// tableState pairs one table's MVCC state with its optional index.
type tableState struct {
	mt *mutation.Table
	// idx and vecCol are set when the engine maintains a vector index for
	// the table (Config.IndexTables and the schema has a vector column).
	idx    *mutation.IndexState
	vecCol string
}

func (m *mutationState) get(name string) *tableState {
	if v, ok := m.tables.Load(strings.ToLower(name)); ok {
		return v.(*tableState)
	}
	return nil
}

// install (re)binds a name to fresh mutation state. Registration and
// recovery call it; Drop calls remove. Replacing an existing entry
// discards the predecessor's generations, key maps, and index — a
// replaced table starts over, and the old incarnation id keeps any of its
// WAL records from replaying into the successor.
func (m *mutationState) install(name string, ts *tableState) {
	m.tables.Store(strings.ToLower(name), ts)
}

func (m *mutationState) remove(name string) {
	m.tables.Delete(strings.ToLower(name))
}

// newIncarnation draws a random table incarnation id.
func newIncarnation() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: reading incarnation randomness: " + err.Error())
	}
	// Zero is reserved as "unset" in old manifests.
	if v := binary.LittleEndian.Uint64(b[:]); v != 0 {
		return v
	}
	return 1
}

// installMutable wraps a just-registered table in mutation state with a
// fresh incarnation, returning it for manifest persistence.
func (e *Engine) installMutable(name string, t *relational.Table) *tableState {
	// Fresh contents invalidate whatever the feedback loop learned about
	// the predecessor (attachIndex below re-registers the knob state).
	e.feedback.Drop(name)
	ts := &tableState{mt: mutation.NewTable(strings.ToLower(name), newIncarnation(), t, nil, 0)}
	e.attachIndex(ts, t)
	e.mut.install(name, ts)
	return ts
}

// attachIndex builds the table's vector index when index maintenance is
// on and the schema has a vector column. IVF-Flat is the maintained kind:
// it absorbs inserts by posting-list append and restores recall after
// churn by re-clustering, without the rebuild HNSW or IVF-PQ would need.
func (e *Engine) attachIndex(ts *tableState, t *relational.Table) {
	if !e.cfg.IndexTables {
		return
	}
	col := vectorColumn(t.Schema())
	if col == "" || t.NumRows() == 0 {
		return
	}
	vc, err := t.Vectors(col)
	if err != nil {
		return
	}
	m, err := mat.FromFlat(t.NumRows(), vc.Dim, vc.Data)
	if err != nil {
		return
	}
	idx, err := ivf.Build(m, ivf.Config{})
	if err != nil {
		return
	}
	// A rebuilt index starts at the config default; if the SLO tuner (or a
	// manifest restore) settled on a knob for this table, re-apply it so
	// rebuilds don't silently forget tuned recall.
	if knob, ok := e.feedback.TunedKnob(ts.mt.Name); ok {
		idx.SetKnob(knob)
	}
	kn, kv := idx.Knob()
	e.feedback.SetCurrent(ts.mt.Name, "ivf", kn, kv)
	ts.idx = mutation.NewIndexState(idx)
	ts.vecCol = col
}

// vectorColumn returns the schema's first vector column name ("" if none).
func vectorColumn(s relational.Schema) string {
	for _, f := range s {
		if f.Type == relational.Vector {
			return f.Name
		}
	}
	return ""
}

// MutationResult reports one applied mutation batch.
type MutationResult struct {
	// Table is the canonical table name.
	Table string `json:"table"`
	// Gen is the table's row-level generation after the batch.
	Gen uint64 `json:"gen"`
	// Upserted is the number of rows appended (upserts only).
	Upserted int `json:"upserted,omitempty"`
	// Replaced is how many upserted rows superseded an existing key.
	Replaced int `json:"replaced,omitempty"`
	// Deleted is the number of rows tombstoned (deletes only).
	Deleted int `json:"deleted,omitempty"`
	// Missing is how many delete keys matched no live row.
	Missing int `json:"missing,omitempty"`
	// LiveRows is the table's visible row count after the batch.
	LiveRows int `json:"live_rows"`
	// Reclustering reports that the batch pushed the deleted fraction over
	// the threshold and a background index re-cluster was scheduled.
	Reclustering bool `json:"reclustering,omitempty"`
}

// hooks assembles the WAL-first persist hook and the index-maintenance
// publish hook for one table. A trace on ctx gets a "wal.append" span per
// persisted record and an "index.append" span per maintained batch.
func (e *Engine) hooks(ctx context.Context, ts *tableState) mutation.Hooks {
	tr := obs.FromContext(ctx)
	h := mutation.Hooks{}
	if e.mut.wal != nil {
		h.Persist = func(rec mutation.Record) error {
			sp := tr.StartSpan("wal.append")
			err := e.mut.wal.Append(rec)
			sp.End()
			if err != nil {
				return fmt.Errorf("%w: wal: %v", ErrPersist, err)
			}
			return nil
		}
	}
	h.BeforePublish = func(next *mutation.Version, appended *relational.Table) error {
		sp := tr.StartSpan("index.append")
		if appended != nil {
			sp.Attr("rows", int64(appended.NumRows()))
		}
		err := e.indexAppend(ts, next, appended)
		sp.End()
		return err
	}
	return h
}

// indexAppend keeps ts's index covering every published row: new batch
// vectors are added before the version swap, so the index may run ahead
// of pinned snapshots but never behind the current one. Called under the
// table's writer lock.
func (e *Engine) indexAppend(ts *tableState, next *mutation.Version, appended *relational.Table) error {
	if appended == nil || appended.NumRows() == 0 {
		return nil
	}
	if ts.idx == nil {
		// Index maintenance may be on but the table was empty (or indexing
		// off at registration): build over the full next version instead.
		e.attachIndex(ts, next.Table)
		return nil
	}
	vc, err := appended.Vectors(ts.vecCol)
	if err != nil {
		return err
	}
	m, err := mat.FromFlat(appended.NumRows(), vc.Dim, vc.Data)
	if err != nil {
		return err
	}
	return ts.idx.Idx.Add(m)
}

// UpsertRows inserts or replaces batch's rows in the named table: a batch
// row whose keyCol value matches a live row tombstones it and takes over
// the key. The batch schema must equal the table's. Durable engines log
// the batch to the WAL (fsynced) before applying; concurrent queries keep
// reading the pre-batch version until the atomic publish.
func (e *Engine) UpsertRows(ctx context.Context, name, keyCol string, batch *relational.Table) (MutationResult, error) {
	if batch == nil {
		return MutationResult{}, badRequest(fmt.Errorf("service: nil upsert batch"))
	}
	tr, ctx := e.front.startTrace(ctx, mutationLabel("upsert", name, batch.NumRows()), false)
	e.mut.mu.RLock()
	defer e.mut.mu.RUnlock()
	ts := e.mut.get(name)
	if ts == nil {
		err := badRequest(fmt.Errorf("service: unknown table %q", name))
		e.front.finishTrace(tr, "upsert", "", err, nil)
		return MutationResult{}, err
	}
	sp := tr.StartSpan("apply")
	next, replaced, err := ts.mt.Upsert(keyCol, batch, e.hooks(ctx, ts))
	if err != nil {
		sp.End()
		if !IsBadRequest(err) && !errors.Is(err, ErrPersist) {
			err = badRequest(err)
		}
		e.front.finishTrace(tr, "upsert", "", err, nil)
		return MutationResult{}, err
	}
	sp.Attr("rows", int64(batch.NumRows())).Attr("replaced", int64(replaced)).End()
	e.catalog.Replace(name, next.Table)
	e.retireEmbeddings(next, batch)
	e.mut.upserts.Add(1)
	e.mut.upsertedRows.Add(int64(batch.NumRows()))
	e.mut.replaced.Add(int64(replaced))
	res := MutationResult{
		Table:    ts.mt.Name,
		Gen:      next.Gen,
		Upserted: batch.NumRows(),
		Replaced: replaced,
		LiveRows: next.NumLive(),
	}
	res.Reclustering = e.maybeRecluster(ts, next)
	e.front.finishTrace(tr, "upsert", "", nil, nil)
	return res, nil
}

// UpsertCSV parses CSV rows under the table's schema and upserts them.
// Tables with vector columns cannot ingest CSV (no vector literal form);
// use UpsertRows.
func (e *Engine) UpsertCSV(ctx context.Context, name, keyCol string, r io.Reader) (MutationResult, error) {
	ts := e.mut.get(name)
	if ts == nil {
		return MutationResult{}, badRequest(fmt.Errorf("service: unknown table %q", name))
	}
	batch, err := relational.ReadCSV(r, ts.mt.Current().Table.Schema())
	if err != nil {
		return MutationResult{}, badRequest(err)
	}
	return e.UpsertRows(ctx, name, keyCol, batch)
}

// DeleteRows tombstones the live rows whose keyCol values match keys
// (canonical string form — integers base 10, floats 'g', times RFC 3339).
// Unknown keys are reported, not errors: deletes are idempotent.
func (e *Engine) DeleteRows(ctx context.Context, name, keyCol string, keys []string) (MutationResult, error) {
	tr, ctx := e.front.startTrace(ctx, mutationLabel("delete", name, len(keys)), false)
	e.mut.mu.RLock()
	defer e.mut.mu.RUnlock()
	ts := e.mut.get(name)
	if ts == nil {
		err := badRequest(fmt.Errorf("service: unknown table %q", name))
		e.front.finishTrace(tr, "delete", "", err, nil)
		return MutationResult{}, err
	}
	sp := tr.StartSpan("apply")
	next, removed, err := ts.mt.Delete(keyCol, keys, e.hooks(ctx, ts))
	if err != nil {
		sp.End()
		if !IsBadRequest(err) && !errors.Is(err, ErrPersist) {
			err = badRequest(err)
		}
		e.front.finishTrace(tr, "delete", "", err, nil)
		return MutationResult{}, err
	}
	sp.Attr("deleted", int64(removed)).End()
	e.catalog.Replace(name, next.Table)
	e.retireEmbeddings(next, nil)
	e.mut.deletes.Add(1)
	e.mut.deleted.Add(int64(removed))
	res := MutationResult{
		Table:    ts.mt.Name,
		Gen:      next.Gen,
		Deleted:  removed,
		Missing:  len(keys) - removed,
		LiveRows: next.NumLive(),
	}
	res.Reclustering = e.maybeRecluster(ts, next)
	e.front.finishTrace(tr, "delete", "", nil, nil)
	return res, nil
}

// retireEmbeddings releases the store entries of the rows v's mutation
// tombstoned, so the shared store tracks the tables' live text instead of
// every text they ever held. Texts the appended batch re-introduces are
// kept; a text still live elsewhere survives through Retire's grace
// period (a query within the next two mutations touches it).
func (e *Engine) retireEmbeddings(v *mutation.Version, appended *relational.Table) {
	if len(v.Retired) == 0 {
		return
	}
	var texts []string
	for c, col := range v.Table.Schema() {
		if col.Type != relational.String {
			continue
		}
		var kept map[string]bool
		if appended != nil {
			kept = make(map[string]bool, appended.NumRows())
			for _, s := range appended.ColumnAt(c).(relational.StringColumn) {
				kept[s] = true
			}
		}
		vals := v.Table.ColumnAt(c).(relational.StringColumn)
		for _, rid := range v.Retired {
			if s := vals[rid]; !kept[s] {
				texts = append(texts, s)
			}
		}
	}
	e.store.Retire(embstore.Fingerprint(e.model), texts)
}

// maybeRecluster evaluates the deleted-fraction trigger for ts's index.
func (e *Engine) maybeRecluster(ts *tableState, v *mutation.Version) bool {
	if ts.idx == nil {
		return false
	}
	frac := e.cfg.ReclusterFraction
	if frac == 0 {
		frac = defaultReclusterFraction
	}
	if frac < 0 {
		return false // explicit opt-out
	}
	if ts.idx.MaybeRecluster(v, frac) {
		e.mut.reclustered.Add(1)
		return true
	}
	return false
}

// defaultReclusterFraction triggers an index re-cluster once 30% of a
// table's rows are tombstones.
const defaultReclusterFraction = 0.3

// pinVersions swaps each side of a resolved query to the table's current
// MVCC version (see PinnedTable.Bind). The pin happens once, before
// planning — the whole query then executes against that generation
// snapshot, unaffected by concurrent mutations. Cached prepared plans stay
// valid across mutations because row-level changes never bump the catalog
// generation: the pin refreshes the binding.
func (e *Engine) pinVersions(q *plan.Query) {
	for _, ref := range []*plan.TableRef{&q.Left, &q.Right} {
		if pt, ok := e.PinnedTable(ref.Name); ok {
			*ref = pt.Bind(*ref)
		}
	}
}

// PinnedTable is one table's pinned MVCC snapshot, as a query would see
// it: the generation's physical table, its live-row visibility set (nil
// when all physical rows are live), and — when a maintained index covers
// the snapshot — that index with the column it is built over.
type PinnedTable struct {
	Table       *relational.Table
	Visible     relational.Selection
	Index       vindex.Index
	IndexColumn string
}

// PinnedTable pins the named table's current MVCC version. The shard
// router pins each shard's partition once per fan-out and reuses the
// snapshot across every scatter pair it opens.
func (e *Engine) PinnedTable(name string) (PinnedTable, bool) {
	ts := e.mut.get(name)
	if ts == nil {
		t, ok := e.catalog.Get(name)
		return PinnedTable{Table: t}, ok
	}
	v := ts.mt.Current()
	pt := PinnedTable{Table: v.Table, Visible: v.LiveSel}
	if ts.idx != nil && ts.idx.Idx.Len() >= v.Table.NumRows() {
		pt.Index = ts.idx.Idx
		pt.IndexColumn = ts.vecCol
	}
	return pt, true
}

// Bind points ref at the snapshot: its physical table and live rows, and
// its index only when that index is built over the column ref joins on.
// It is the one pin rule for the engine and the shard router.
func (pt PinnedTable) Bind(ref plan.TableRef) plan.TableRef {
	ref.Table, ref.Visible, ref.Index = pt.Table, pt.Visible, nil
	if pt.Index != nil && ref.VectorColumn != "" && ref.VectorColumn == pt.IndexColumn {
		ref.Index = pt.Index
	}
	return ref
}

// WaitForMaintenance blocks until any in-flight background index
// maintenance (re-clustering) completes — test and shutdown hook.
func (e *Engine) WaitForMaintenance() {
	e.mut.tables.Range(func(_, v any) bool {
		if ts := v.(*tableState); ts.idx != nil {
			ts.idx.Wait()
		}
		return true
	})
}

// MutationStats is the live-update arm's observability surface.
type MutationStats struct {
	// WAL describes the write-ahead log (durable engines only).
	WAL *mutation.WALStats `json:"wal,omitempty"`
	// Upserts/Deletes count applied batches; UpsertedRows/DeletedRows the
	// rows they touched; ReplacedRows upserts that superseded a key.
	Upserts      int64 `json:"upserts"`
	Deletes      int64 `json:"deletes"`
	UpsertedRows int64 `json:"upserted_rows"`
	ReplacedRows int64 `json:"replaced_rows"`
	DeletedRows  int64 `json:"deleted_rows"`
	// Tombstones is the current total of dead rows across tables.
	Tombstones int64 `json:"tombstones"`
	// ReplayedRecords is how many WAL records Open applied; SkippedRecords
	// how many it dropped (stale generation or incarnation).
	ReplayedRecords int64 `json:"replayed_records"`
	SkippedRecords  int64 `json:"skipped_records"`
	// Checkpoints counts snapshot-folded WAL truncations; Reclusters
	// counts scheduled index re-cluster passes.
	Checkpoints int64 `json:"checkpoints"`
	Reclusters  int64 `json:"reclusters"`
	// Generations maps each mutated table to its current generation.
	Generations map[string]uint64 `json:"generations,omitempty"`
}

// mutationStats snapshots the live-update counters.
func (e *Engine) mutationStats() *MutationStats {
	m := &e.mut
	st := &MutationStats{
		Upserts:         m.upserts.Load(),
		Deletes:         m.deletes.Load(),
		UpsertedRows:    m.upsertedRows.Load(),
		ReplacedRows:    m.replaced.Load(),
		DeletedRows:     m.deleted.Load(),
		ReplayedRecords: m.replayed.Load(),
		SkippedRecords:  m.replaySkipped.Load(),
		Checkpoints:     m.checkpoints.Load(),
		Reclusters:      m.reclustered.Load(),
	}
	if m.wal != nil {
		ws := m.wal.Stats()
		st.WAL = &ws
	}
	st.Reclusters = 0 // report completed passes, not scheduled ones
	gens := make(map[string]uint64)
	m.tables.Range(func(k, v any) bool {
		ts := v.(*tableState)
		cur := ts.mt.Current()
		st.Tombstones += int64(cur.Dead)
		if cur.Gen > 0 {
			gens[k.(string)] = cur.Gen
		}
		if ts.idx != nil {
			st.Reclusters += ts.idx.Reclusters()
		}
		return true
	})
	if len(gens) > 0 {
		st.Generations = gens
	}
	return st
}
