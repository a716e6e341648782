package mutation

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/relational"
)

// Version is one immutable snapshot of a mutable table: the physical
// table (rows only ever appended), the set of live row ids, and the
// row-level generation that produced it. Queries pin a Version for their
// whole execution — concurrent mutations publish later Versions without
// touching earlier ones, so a reader sees either entirely-before or
// entirely-after any batch, never a mix.
type Version struct {
	// Table is the physical table. Earlier versions alias a prefix of the
	// same column storage (copy-on-write appends), which is safe because
	// published rows are never modified in place.
	Table *relational.Table
	// Live marks the visible row ids; nil means every row is live.
	Live *relational.Bitmap
	// LiveSel is Live as a selection vector, precomputed at publish time;
	// nil when every row is live.
	LiveSel relational.Selection
	// Gen is the generation counter after the mutation that published
	// this version (0 for the registered base table).
	Gen uint64
	// Dead counts tombstoned rows (Table.NumRows() - live rows).
	Dead int
	// Retired lists the row ids the mutation that published this version
	// tombstoned (overwritten or deleted), so the owner can release what
	// it holds for them; nil for a registered base table.
	Retired []int
}

// NumLive returns the visible row count.
func (v *Version) NumLive() int { return v.Table.NumRows() - v.Dead }

// Hooks order a mutation's side effects around the version swap.
type Hooks struct {
	// Persist logs the record; it runs before any in-memory change (the
	// write-ahead barrier). Nil skips logging — the replay path.
	Persist func(Record) error
	// BeforePublish runs after the next version is computed but before it
	// becomes visible; the service uses it to append new vectors to the
	// table's index so the index always covers every published row (it may
	// run ahead of older pinned versions — readers mask the excess). An
	// error aborts the publish; rows the index already absorbed are beyond
	// every version's row count and stay invisible.
	BeforePublish func(next *Version, appended *relational.Table) error
}

// Table is one mutable catalog table: an atomically swappable current
// Version plus the writer-side state (key maps, generation). Readers call
// Current and go; writers serialize on an internal mutex.
type Table struct {
	// Name is the canonical catalog name.
	Name string
	// Incarnation identifies this registration of the name (random,
	// persisted in the manifest) — see Record.Incarnation.
	Incarnation uint64

	mu  sync.Mutex // serializes writers
	cur atomic.Pointer[Version]
	// keys maps the active key column to keyString -> live row id. Built
	// lazily on first use of a key column; switching key columns discards
	// the previous map (rebuilt on demand), so a table pays only for the
	// key column it actually mutates by.
	keyCol string
	keys   map[string]int
	// checkpointGen is the generation already folded into the durable
	// table file + tombstone sidecar; Snapshot uses it to skip unchanged
	// tables, and replay uses it to drop already-applied records.
	checkpointGen uint64
}

// NewTable wraps a freshly registered (or checkpoint-recovered) table.
// live may be nil (all rows live); gen is the recovered generation (0 for
// a fresh registration), which is also the checkpoint generation.
func NewTable(name string, incarnation uint64, t *relational.Table, live *relational.Bitmap, gen uint64) *Table {
	mt := &Table{Name: name, Incarnation: incarnation, checkpointGen: gen}
	mt.cur.Store(makeVersion(t, live, gen))
	return mt
}

// makeVersion assembles a Version, normalizing the all-live case and
// precomputing the selection vector.
func makeVersion(t *relational.Table, live *relational.Bitmap, gen uint64) *Version {
	v := &Version{Table: t, Gen: gen}
	if live != nil {
		dead := t.NumRows() - live.Count()
		if dead > 0 {
			v.Live = live
			v.LiveSel = live.ToSelection()
			v.Dead = dead
		}
	}
	return v
}

// Current returns the table's current version. The returned snapshot is
// immutable; callers may hold it for as long as they like.
func (t *Table) Current() *Version { return t.cur.Load() }

// Gen returns the current generation.
func (t *Table) Gen() uint64 { return t.Current().Gen }

// CheckpointGen returns the generation last folded into durable state.
func (t *Table) CheckpointGen() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkpointGen
}

// SetCheckpointGen records that durable state now covers gen.
func (t *Table) SetCheckpointGen(gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.checkpointGen = gen
}

// KeyString canonicalizes one column value for key matching and WAL
// delete payloads: integers in base 10, floats in Go 'g' form, times in
// RFC 3339 with nanoseconds, booleans as "true"/"false". Vector columns
// have no canonical key form.
func KeyString(col relational.Column, row int) (string, error) {
	switch c := col.(type) {
	case relational.Int64Column:
		return strconv.FormatInt(c[row], 10), nil
	case relational.Float64Column:
		return strconv.FormatFloat(c[row], 'g', -1, 64), nil
	case relational.StringColumn:
		return c[row], nil
	case relational.TimeColumn:
		return c[row].Format(time.RFC3339Nano), nil
	case relational.BoolColumn:
		return strconv.FormatBool(c[row]), nil
	default:
		return "", fmt.Errorf("mutation: column type %s cannot be a key", col.Type())
	}
}

// keyMap ensures t.keys maps keyCol over the live rows of v. Caller holds
// t.mu.
func (t *Table) keyMap(v *Version, keyCol string) (map[string]int, error) {
	if t.keyCol == keyCol && t.keys != nil {
		return t.keys, nil
	}
	col, err := v.Table.Column(keyCol)
	if err != nil {
		return nil, err
	}
	m := make(map[string]int, v.NumLive())
	for r := 0; r < v.Table.NumRows(); r++ {
		if v.Live != nil && !v.Live.Get(r) {
			continue
		}
		k, err := KeyString(col, r)
		if err != nil {
			return nil, err
		}
		m[k] = r // later rows win: an upsert's replacement has the higher id
	}
	t.keyCol, t.keys = keyCol, m
	return m, nil
}

// Upsert appends batch's rows, tombstoning any live row whose keyCol
// value matches a batch row (last occurrence wins within the batch).
// The record is persisted through hooks.Persist before any state changes;
// hooks.BeforePublish runs with the computed next version before the
// atomic swap. Returns the published version and the number of rows that
// replaced an existing key.
func (t *Table) Upsert(keyCol string, batch *relational.Table, hooks Hooks) (*Version, int, error) {
	if batch.NumRows() == 0 {
		return t.Current(), 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.cur.Load()
	if err := relational.SameSchema(cur.Table.Schema(), batch.Schema()); err != nil {
		return nil, 0, err
	}
	keys, err := t.keyMap(cur, keyCol)
	if err != nil {
		return nil, 0, err
	}
	batchKey, err := batch.Column(keyCol)
	if err != nil {
		return nil, 0, err
	}
	gen := cur.Gen + 1
	if hooks.Persist != nil {
		rec := Record{Kind: KindUpsert, Incarnation: t.Incarnation, Gen: gen,
			Table: t.Name, KeyCol: keyCol, Batch: batch}
		if err := hooks.Persist(rec); err != nil {
			return nil, 0, err
		}
	}
	next, replaced, err := t.applyUpsert(cur, keys, batchKey, batch, gen)
	if err != nil {
		return nil, 0, err
	}
	if hooks.BeforePublish != nil {
		if err := hooks.BeforePublish(next, batch); err != nil {
			t.keys = nil // key map was advanced; force rebuild
			return nil, 0, err
		}
	}
	t.cur.Store(next)
	return next, replaced, nil
}

// applyUpsert computes the next version for an upsert. Caller holds t.mu;
// keys is the live key map for the batch's key column and is advanced to
// the next version's state.
func (t *Table) applyUpsert(cur *Version, keys map[string]int, batchKey relational.Column, batch *relational.Table, gen uint64) (*Version, int, error) {
	nt, err := relational.AppendRows(cur.Table, batch)
	if err != nil {
		return nil, 0, err
	}
	var live *relational.Bitmap
	if cur.Live != nil {
		live = cur.Live.GrowClone(nt.NumRows())
	} else {
		live = relational.NewBitmap(nt.NumRows())
		for r := 0; r < nt.NumRows(); r++ {
			live.Set(r)
		}
	}
	var retired []int
	base := cur.Table.NumRows()
	for i := 0; i < batch.NumRows(); i++ {
		k, err := KeyString(batchKey, i)
		if err != nil {
			t.keys = nil
			return nil, 0, err
		}
		id := base + i
		live.Set(id)
		if old, ok := keys[k]; ok {
			live.Clear(old)
			retired = append(retired, old)
		}
		keys[k] = id
	}
	next := makeVersion(nt, live, gen)
	next.Retired = retired
	return next, len(retired), nil
}

// Delete tombstones the live rows whose keyCol values match keys
// (canonical form). Unknown keys are counted, not errors — deletes are
// idempotent under replay. Returns the published version and the number
// of rows actually tombstoned.
func (t *Table) Delete(keyCol string, delKeys []string, hooks Hooks) (*Version, int, error) {
	if len(delKeys) == 0 {
		return t.Current(), 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.cur.Load()
	keys, err := t.keyMap(cur, keyCol)
	if err != nil {
		return nil, 0, err
	}
	gen := cur.Gen + 1
	if hooks.Persist != nil {
		rec := Record{Kind: KindDelete, Incarnation: t.Incarnation, Gen: gen,
			Table: t.Name, KeyCol: keyCol, Batch: deleteBatch(delKeys)}
		if err := hooks.Persist(rec); err != nil {
			return nil, 0, err
		}
	}
	var live *relational.Bitmap
	if cur.Live != nil {
		live = cur.Live.Clone()
	} else {
		live = relational.NewBitmap(cur.Table.NumRows())
		for r := 0; r < cur.Table.NumRows(); r++ {
			live.Set(r)
		}
	}
	var retired []int
	for _, k := range delKeys {
		if id, ok := keys[k]; ok {
			live.Clear(id)
			delete(keys, k)
			retired = append(retired, id)
		}
	}
	next := makeVersion(cur.Table, live, gen)
	next.Retired = retired
	if hooks.BeforePublish != nil {
		if err := hooks.BeforePublish(next, nil); err != nil {
			t.keys = nil
			return nil, 0, err
		}
	}
	t.cur.Store(next)
	return next, len(retired), nil
}

// deleteBatch encodes delete keys as the single-column table a KindDelete
// record carries.
func deleteBatch(keys []string) *relational.Table {
	t, err := relational.NewTable(
		relational.Schema{{Name: "key", Type: relational.String}},
		[]relational.Column{relational.StringColumn(append([]string(nil), keys...))},
	)
	if err != nil {
		panic("mutation: building delete batch: " + err.Error()) // single String column cannot fail
	}
	return t
}

// DeleteKeys extracts the canonical keys from a KindDelete record batch.
func DeleteKeys(rec Record) ([]string, error) {
	if rec.Kind != KindDelete {
		return nil, errors.New("mutation: not a delete record")
	}
	col, err := rec.Batch.Strings("key")
	if err != nil {
		return nil, fmt.Errorf("mutation: delete record batch: %w", err)
	}
	return col, nil
}

// Apply replays one WAL record against the table. Records at or below the
// current generation are skipped (already folded into the checkpoint this
// table was recovered from, or duplicated in the log); records for a
// different incarnation are skipped (they belong to a dropped predecessor
// of this name). hooks.Persist must be nil — the record is already logged.
// Returns whether the record was applied.
func (t *Table) Apply(rec Record, hooks Hooks) (bool, error) {
	if rec.Incarnation != t.Incarnation {
		return false, nil
	}
	if rec.Gen <= t.Gen() {
		return false, nil
	}
	switch rec.Kind {
	case KindUpsert:
		_, _, err := t.Upsert(rec.KeyCol, rec.Batch, hooks)
		return err == nil, err
	case KindDelete:
		keys, err := DeleteKeys(rec)
		if err != nil {
			return false, err
		}
		_, _, err = t.Delete(rec.KeyCol, keys, hooks)
		return err == nil, err
	default:
		return false, fmt.Errorf("mutation: unknown record kind %d", rec.Kind)
	}
}
