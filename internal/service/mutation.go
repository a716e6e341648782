package service

// Live mutation: row-level upsert/delete against registered tables, with
// WAL-first durability and MVCC snapshots for readers. The engine-side
// state here orchestrates the mutation package: one mutation.Table per
// catalog entry and the shared WAL on durable engines.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"ejoin/internal/embstore"
	"ejoin/internal/mutation"
	"ejoin/internal/obs"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
)

// mutationState is the engine's live-update arm.
type mutationState struct {
	// mu orders mutations against checkpoints: mutations hold it shared,
	// Snapshot holds it exclusively across checkpoint+WAL-truncate so no
	// record can land between "folded into table files" and "log reset"
	// (it would be discarded unapplied).
	mu     sync.RWMutex
	tables sync.Map // canonical name -> *mutation.Table

	// wal is non-nil on durable engines.
	wal *mutation.WAL

	upserts, deletes        atomic.Int64
	upsertedRows, deleted   atomic.Int64
	replaced                atomic.Int64
	replayed, replaySkipped atomic.Int64
	checkpoints             atomic.Int64
	compactions             atomic.Int64
}

func (m *mutationState) get(name string) *mutation.Table {
	if v, ok := m.tables.Load(strings.ToLower(name)); ok {
		return v.(*mutation.Table)
	}
	return nil
}

// install (re)binds a name to fresh mutation state, returning the
// predecessor (nil if none). Registration and recovery call it; Drop calls
// remove. Replacing an existing entry discards the predecessor's
// generations and key maps — a replaced table starts over, and the old
// incarnation id keeps any of its WAL records from replaying into the
// successor.
func (m *mutationState) install(name string, ts *mutation.Table) *mutation.Table {
	if old, ok := m.tables.Swap(strings.ToLower(name), ts); ok {
		return old.(*mutation.Table)
	}
	return nil
}

func (m *mutationState) remove(name string) *mutation.Table {
	if old, ok := m.tables.LoadAndDelete(strings.ToLower(name)); ok {
		return old.(*mutation.Table)
	}
	return nil
}

// release drops the column chunks of a table incarnation that has left
// the catalog (dropped or replaced): no query can pin it again.
func (e *Engine) release(ts *mutation.Table) {
	if ts != nil {
		e.dropLineage(ts.Current().Table)
	}
}

// dropLineage releases the column chunks of t's row lineage, which no new
// query can pin: its table was dropped, replaced or compacted.
func (e *Engine) dropLineage(t *relational.Table) {
	cols := make(map[string][]string)
	for c, f := range t.Schema() {
		if f.Type == relational.String {
			cols[f.Name] = t.ColumnAt(c).(relational.StringColumn)
		}
	}
	e.store.DropLineage(embstore.Fingerprint(e.model), t.Incarnation(), cols)
}

// carryChunks fills the column chunks of a compacted version's lineage
// from those of the lineage it compacted (Version.Kept), with no model
// call. It runs before the version publishes, so the first query that
// pins it finds its column where the predecessor's was.
func (e *Engine) carryChunks(v *mutation.Version) {
	from := embstore.ChunkKey{Fingerprint: embstore.Fingerprint(e.model), Incarnation: v.Compacted.Incarnation()}
	for c, f := range v.Table.Schema() {
		if f.Type == relational.String {
			from.Column = f.Name
			e.store.Carry(from, v.Table.Incarnation(), e.model.Dim(), v.Kept, v.Table.ColumnAt(c).(relational.StringColumn))
		}
	}
}

// newTable wraps a registered or recovered table in mutation state; the
// tables of a shard engine keep their row ids (mutation.Table.FixRowIDs).
func (e *Engine) newTable(name string, inc uint64, t *relational.Table, live *relational.Bitmap, gen uint64) *mutation.Table {
	mt := mutation.NewTable(name, inc, t, live, gen)
	if e.fixedRowIDs {
		mt.FixRowIDs()
	}
	return mt
}

// installMutable wraps a just-registered table in mutation state with a
// fresh incarnation, returning it for manifest persistence.
func (e *Engine) installMutable(name string, t *relational.Table) *mutation.Table {
	// Fresh contents invalidate whatever the feedback loop learned about
	// the predecessor.
	e.feedback.Drop(name)
	ts := e.newTable(strings.ToLower(name), mutation.NewIncarnation(), t, nil, 0)
	e.release(e.mut.install(name, ts))
	return ts
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
}

// hooks assembles the WAL-first persist hook and the publish hook that
// carries column chunks across a compaction. A trace on ctx gets a
// "wal.append" span per persisted record.
func (e *Engine) hooks(ctx context.Context) mutation.Hooks {
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
	h.BeforePublish = func(next *mutation.Version) {
		if next.Kept != nil {
			e.carryChunks(next)
		}
	}
	return h
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
		e.front.finishTrace(tr, "upsert", err, nil)
		return MutationResult{}, err
	}
	sp := tr.StartSpan("apply")
	next, replaced, err := ts.Upsert(keyCol, batch, e.hooks(ctx))
	if err != nil {
		sp.End()
		if !IsBadRequest(err) && !errors.Is(err, ErrPersist) {
			err = badRequest(err)
		}
		e.front.finishTrace(tr, "upsert", err, nil)
		return MutationResult{}, err
	}
	sp.Attr("rows", int64(batch.NumRows())).Attr("replaced", int64(replaced))
	e.published(name, next, sp)
	e.mut.upserts.Add(1)
	e.mut.upsertedRows.Add(int64(batch.NumRows()))
	e.mut.replaced.Add(int64(replaced))
	res := MutationResult{
		Table:    ts.Name,
		Gen:      next.Gen,
		Upserted: batch.NumRows(),
		Replaced: replaced,
		LiveRows: next.NumLive(),
	}
	e.front.finishTrace(tr, "upsert", nil, nil)
	return res, nil
}

// UpsertCSV parses CSV rows under the table's schema and upserts them.
func (e *Engine) UpsertCSV(ctx context.Context, name, keyCol string, r io.Reader) (MutationResult, error) {
	ts := e.mut.get(name)
	if ts == nil {
		return MutationResult{}, badRequest(fmt.Errorf("service: unknown table %q", name))
	}
	batch, err := relational.ReadCSV(r, ts.Current().Table.Schema())
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
		e.front.finishTrace(tr, "delete", err, nil)
		return MutationResult{}, err
	}
	sp := tr.StartSpan("apply")
	next, removed, err := ts.Delete(keyCol, keys, e.hooks(ctx))
	if err != nil {
		sp.End()
		if !IsBadRequest(err) && !errors.Is(err, ErrPersist) {
			err = badRequest(err)
		}
		e.front.finishTrace(tr, "delete", err, nil)
		return MutationResult{}, err
	}
	sp.Attr("deleted", int64(removed))
	e.published(name, next, sp)
	e.mut.deletes.Add(1)
	e.mut.deleted.Add(int64(removed))
	res := MutationResult{
		Table:    ts.Name,
		Gen:      next.Gen,
		Deleted:  removed,
		Missing:  len(keys) - removed,
		LiveRows: next.NumLive(),
	}
	e.front.finishTrace(tr, "delete", nil, nil)
	return res, nil
}

// published follows a mutation's publish of v: the catalog serves v's
// table, and the store lets go of what no later version reads — the
// lineage a compaction left (its "compacted" attribute on sp counts the
// rows it dropped), or else the rows v retired. It ends sp.
func (e *Engine) published(name string, v *mutation.Version, sp *obs.ActiveSpan) {
	if v.Kept != nil {
		sp.Attr("compacted", int64(v.Compacted.NumRows()-len(v.Kept)))
	}
	sp.End()
	e.catalog.Replace(name, v.Table)
	if v.Kept != nil {
		e.mut.compactions.Add(1)
		e.dropLineage(v.Compacted)
		return
	}
	e.releaseRetired(v)
}

// releaseRetired lets go of what the store holds for the rows v's
// mutation tombstoned: the column chunks it left with no live row, and in
// the others the dead rows' vectors once they are most of the chunk
// (Store.Shed). No later version reads them, and a query still pinned to
// an earlier one rebuilds what it needs.
func (e *Engine) releaseRetired(v *mutation.Version) {
	if len(v.Retired) == 0 {
		return
	}
	key := embstore.ChunkKey{Fingerprint: embstore.Fingerprint(e.model), Incarnation: v.Table.Incarnation()}
	n := v.Table.NumRows()
	touched := make(map[int]bool)
	for _, r := range v.Retired {
		ci := r / embstore.ChunkRows
		if touched[ci] {
			continue
		}
		touched[ci] = true
		live := embstore.SelectionMask(v.LiveSel, ci)
		key.Index = ci
		lo, hi := ci*embstore.ChunkRows, min((ci+1)*embstore.ChunkRows, n)
		for c, f := range v.Table.Schema() {
			if f.Type != relational.String {
				continue
			}
			key.Column = f.Name
			texts := v.Table.ColumnAt(c).(relational.StringColumn)[lo:hi]
			if live.Count() == 0 {
				e.store.DropChunk(key, texts)
			} else {
				e.store.Shed(key, live, texts)
			}
		}
	}
}

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
// it: the generation's physical table and its live-row visibility set
// (nil when all physical rows are live).
type PinnedTable struct {
	Table   *relational.Table
	Visible relational.Selection
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
	v := ts.Current()
	return PinnedTable{Table: v.Table, Visible: v.LiveSel}, true
}

// Bind points ref at the snapshot: its physical table and live rows. It
// is the one pin rule for the engine and the shard router.
func (pt PinnedTable) Bind(ref plan.TableRef) plan.TableRef {
	ref.Table, ref.Visible = pt.Table, pt.Visible
	return ref
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
	// Checkpoints counts snapshot-folded WAL truncations.
	Checkpoints int64 `json:"checkpoints"`
	// Compactions counts mutations (replayed ones too) that published a
	// table compacted to its live rows.
	Compactions int64 `json:"compactions"`
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
		Compactions:     m.compactions.Load(),
	}
	if m.wal != nil {
		ws := m.wal.Stats()
		st.WAL = &ws
	}
	gens := make(map[string]uint64)
	m.tables.Range(func(k, v any) bool {
		cur := v.(*mutation.Table).Current()
		st.Tombstones += int64(cur.Dead)
		if cur.Gen > 0 {
			gens[k.(string)] = cur.Gen
		}
		return true
	})
	if len(gens) > 0 {
		st.Generations = gens
	}
	return st
}
