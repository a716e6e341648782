package service

// Durable engine lifecycle: Open recovers an engine from a data
// directory, the insert hook persists new embeddings write-behind,
// RegisterTable/DropTable keep the table manifest in step with the
// catalog, and Snapshot/Close flush and compact. A memory-only engine
// (NewEngine, or Open with an empty DataDir) skips all of it.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ejoin/internal/durable"
	"ejoin/internal/mutation"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// durableState is the engine's persistence arm.
type durableState struct {
	layout    durable.Layout
	log       *durable.Log
	persister *durable.Persister

	// mu serializes manifest read-modify-write cycles (catalog mutations
	// are already safe; this guards the durable mirror of them).
	mu       sync.Mutex
	manifest durable.Manifest

	loadedEntries int64
	loadedTables  int
	warnings      []string
	snapshots     int64
}

// Open builds an Engine like NewEngine and, when cfg.DataDir is set,
// recovers durable state from it: the manifest's tables are read
// (checksum-verified) and registered, the embedding segment log is
// replayed into the store (torn tails truncated, corrupt records
// skipped — never served), and a write-behind persister is attached so
// every embedding computed from here on reaches disk. The returned
// engine must be Closed to flush the log.
func Open(cfg Config) (*Engine, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DataDir == "" {
		return e, nil
	}
	d := &durableState{layout: durable.Layout{Dir: cfg.DataDir}}
	if err := d.layout.Create(); err != nil {
		return nil, err
	}

	// Tables first: queries arriving right after Open see the catalog.
	d.manifest, err = durable.ReadManifest(d.layout.ManifestPath())
	if err != nil {
		return nil, err
	}
	kept := d.manifest.Tables[:0]
	for i := range d.manifest.Tables {
		entry := &d.manifest.Tables[i]
		path := d.layout.TablePath(entry.Name)
		if entry.File != "" {
			path = d.layout.Resolve(entry.File)
		}
		t, err := durable.ReadTableFile(path)
		if err != nil {
			// A missing or corrupt table file must not block startup or
			// serve bad rows: drop the entry, keep the warning.
			d.warnings = append(d.warnings, fmt.Sprintf("table %q not recovered: %v", entry.Name, err))
			continue
		}
		// Mutation state: incarnation (assigned now for pre-mutation
		// manifests), checkpoint generation, and tombstones from the
		// sidecar the manifest committed. A corrupt or inconsistent
		// sidecar fails the table like a corrupt table file would —
		// serving rows the checkpoint had deleted is serving bad rows.
		inc := entry.Incarnation
		if inc == 0 {
			inc = newIncarnation()
			entry.Incarnation = inc
		}
		var live *relational.Bitmap
		if entry.TombFile != "" {
			tomb, terr := mutation.ReadTombFile(d.layout.Resolve(entry.TombFile))
			if terr == nil && (tomb.Incarnation != inc || tomb.Gen != entry.RowGen) {
				terr = fmt.Errorf("sidecar %s does not match manifest (inc %d/%d gen %d/%d)",
					entry.TombFile, tomb.Incarnation, inc, tomb.Gen, entry.RowGen)
			}
			if terr == nil {
				live, terr = mutation.LiveFromDead(t.NumRows(), tomb.Dead)
			}
			if terr != nil {
				d.warnings = append(d.warnings, fmt.Sprintf("table %q not recovered: %v", entry.Name, terr))
				continue
			}
		}
		e.catalog.Register(entry.Name, t)
		e.mut.install(entry.Name, &tableState{mt: mutation.NewTable(entry.Name, inc, t, live, entry.RowGen)})
		// Restore the table's precision knob with the table; an invalid
		// value degrades to exact, never to an error.
		if p, err := quant.ParsePrecision(entry.Precision); err != nil {
			d.warnings = append(d.warnings, fmt.Sprintf("table %q: %v (running exact)", entry.Name, err))
		} else if err := ValidateScanPrecision(p); err != nil {
			d.warnings = append(d.warnings, fmt.Sprintf("table %q: %v (running exact)", entry.Name, err))
		} else {
			e.tablePrec.set(entry.Name, p)
		}
		// Restore the tuned index knob likewise: attachIndex re-applies it
		// when the table's index builds below.
		if entry.TunedKnob > 0 {
			e.feedback.SeedKnob(entry.Name, "", "", entry.TunedKnob)
		}
		kept = append(kept, *entry)
		d.loadedTables++
	}
	if len(kept) != len(d.manifest.Tables) {
		d.manifest.Tables = kept
		if err := d.manifest.Write(d.layout.ManifestPath()); err != nil {
			return nil, err
		}
	}
	e.front.PurgeStalePlans()
	d.sweepCheckpoints()

	// Mutation WAL: replay the records newer than each table's last
	// checkpoint (older ones are already folded into the table files; the
	// per-record incarnation drops strays from dropped tables), then keep
	// the log open for appends. Replay costs zero model calls — upsert
	// batches carry their vectors.
	wal, err := mutation.OpenWAL(d.layout.WalPath(), func(rec mutation.Record) error {
		ts := e.mut.get(rec.Table)
		if ts == nil {
			e.mut.replaySkipped.Add(1)
			return nil
		}
		applied, aerr := ts.mt.Apply(rec, mutation.Hooks{})
		if aerr != nil {
			// An intact record that cannot apply (e.g. schema drift without
			// an incarnation change) is a consistency bug upstream; keep
			// booting on the state we have rather than refusing to start.
			d.warnings = append(d.warnings, fmt.Sprintf("wal record for %q (gen %d) skipped: %v", rec.Table, rec.Gen, aerr))
			e.mut.replaySkipped.Add(1)
			return nil
		}
		if !applied {
			e.mut.replaySkipped.Add(1)
			return nil
		}
		e.mut.replayed.Add(1)
		e.catalog.Replace(rec.Table, ts.mt.Current().Table)
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.mut.wal = wal
	// Indexes build after replay, over each table's final physical rows.
	if cfg.IndexTables {
		e.mut.tables.Range(func(_, v any) bool {
			ts := v.(*tableState)
			e.attachIndex(ts, ts.mt.Current().Table)
			return true
		})
	}

	// Embedding log: replay into the store via Put (no model calls, no
	// persist hook), then attach the write-behind persister.
	log, loaded, err := durable.LoadStore(d.layout.EmbDir(), durable.LogConfig{SegmentBytes: cfg.SegmentBytes}, e.store)
	if err != nil {
		return nil, err
	}
	d.log = log
	d.loadedEntries = loaded
	d.persister = durable.NewPersister(log, cfg.PersistQueue)
	d.persister.Attach(e.store)

	e.durable = d
	return e, nil
}

// sweepCheckpoints removes generation-suffixed checkpoint files the
// manifest no longer (or never committed to) reference: superseded
// checkpoints whose delete was interrupted, and staged files from a crash
// before the manifest commit. Registration-time files never match the
// checkpoint pattern and are untouched. Caller runs this at open, after
// manifest recovery, before serving.
func (d *durableState) sweepCheckpoints() {
	referenced := make(map[string]bool)
	d.mu.Lock()
	for _, entry := range d.manifest.Tables {
		if entry.File != "" {
			referenced[filepath.Base(entry.File)] = true
		}
		if entry.TombFile != "" {
			referenced[filepath.Base(entry.TombFile)] = true
		}
	}
	d.mu.Unlock()
	names, err := os.ReadDir(d.layout.TableDir())
	if err != nil {
		return
	}
	removed := false
	for _, de := range names {
		base := de.Name()
		if durable.IsCheckpointFile(base) && !referenced[base] {
			_ = os.Remove(filepath.Join(d.layout.TableDir(), base))
			removed = true
		}
	}
	if removed {
		durable.SyncDir(d.layout.TableDir())
	}
}

// Close flushes and detaches the durable layer: the write-behind queue
// drains, the log fsyncs, and files close. Idempotent; a memory-only
// engine Closes as a no-op. In-flight queries are not interrupted — stop
// accepting queries (e.g. drain HTTP) before closing.
func (e *Engine) Close() error {
	e.stopAuditor()
	d := e.durable
	if d == nil {
		return nil
	}
	e.store.SetOnInsert(nil)
	e.WaitForMaintenance()
	var firstErr error
	if err := d.persister.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := d.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	// Detach the WAL under the exclusive mutation lock so no append races
	// the close; Close stays idempotent.
	e.mut.mu.Lock()
	wal := e.mut.wal
	e.mut.wal = nil
	e.mut.mu.Unlock()
	if wal != nil {
		if err := wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SnapshotInfo reports what one Snapshot call did.
type SnapshotInfo struct {
	// Entries is the number of live cache entries in the compacted log.
	Entries int64 `json:"entries"`
	// SegmentsRemoved is how many pre-compaction segments were deleted.
	SegmentsRemoved int `json:"segments_removed"`
	// LogBytes is the log size after compaction.
	LogBytes int64 `json:"log_bytes"`
	// Tables is the number of tables in the manifest.
	Tables int `json:"tables"`
	// Checkpointed is how many mutated tables were folded into fresh
	// durable files (their WAL records then truncate away).
	Checkpointed int `json:"checkpointed"`
	// WalBytes is the mutation WAL size after truncation.
	WalBytes int64 `json:"wal_bytes"`
	// Elapsed is wall time spent snapshotting.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Snapshot forces the durable state current and minimal: the write-behind
// queue flushes, the embedding log compacts down to the store's live
// entries (dropping evicted and superseded records), and the table
// manifest rewrites. Concurrent queries keep running; appends block only
// for the compaction itself.
func (e *Engine) Snapshot() (SnapshotInfo, error) {
	d := e.durable
	if d == nil {
		return SnapshotInfo{}, fmt.Errorf("%w: snapshot requires Open with DataDir", ErrNotDurable)
	}
	start := time.Now()
	if err := d.persister.Flush(); err != nil {
		return SnapshotInfo{}, err
	}
	var info SnapshotInfo
	removed, err := d.log.Compact(func(emit func(durable.Record) error) error {
		var inner error
		e.store.Range(func(fp, input string, vec []float32) bool {
			if err := emit(durable.Record{Fingerprint: fp, Input: input, Vec: vec}); err != nil {
				inner = err
				return false
			}
			info.Entries++
			return true
		})
		return inner
	})
	if err != nil {
		return SnapshotInfo{}, err
	}
	info.SegmentsRemoved = removed

	// Checkpoint mutated tables. The exclusive mutation lock blocks
	// upserts/deletes across fold + manifest commit + WAL truncate: a
	// record appended inside that window would be folded nowhere and then
	// truncated away. Queries are unaffected — they read pinned versions.
	e.mut.mu.Lock()
	defer e.mut.mu.Unlock()
	type folded struct {
		ts       *tableState
		gen      uint64
		oldFiles []string
	}
	var folds []folded
	var foldErr error
	e.mut.tables.Range(func(k, v any) bool {
		ts := v.(*tableState)
		cur := ts.mt.Current()
		if cur.Gen <= ts.mt.CheckpointGen() {
			return true // unchanged since last checkpoint
		}
		name := k.(string)
		// Stage the full physical table (tombstoned rows kept: compacting
		// would renumber the row ids the indexes and WAL replay depend on)
		// plus the sidecar, under generation-suffixed names.
		fileRel := d.layout.CheckpointTableRel(name, cur.Gen)
		if err := durable.WriteTableFile(d.layout.Resolve(fileRel), cur.Table); err != nil {
			foldErr = fmt.Errorf("%w: checkpoint table %q: %v", ErrPersist, name, err)
			return false
		}
		tombRel := ""
		if cur.Dead > 0 {
			tombRel = d.layout.CheckpointTombRel(name, cur.Gen)
			st := mutation.TombState{Incarnation: ts.mt.Incarnation, Gen: cur.Gen, Dead: mutation.DeadIDs(cur)}
			if err := mutation.WriteTombFile(d.layout.Resolve(tombRel), st); err != nil {
				foldErr = fmt.Errorf("%w: checkpoint sidecar %q: %v", ErrPersist, name, err)
				return false
			}
		}
		d.mu.Lock()
		var old []string
		for _, entry := range d.manifest.Tables {
			if entry.Name == name {
				if entry.File != "" && entry.File != fileRel {
					old = append(old, entry.File)
				}
				if entry.TombFile != "" && entry.TombFile != tombRel {
					old = append(old, entry.TombFile)
				}
			}
		}
		d.manifest.Upsert(durable.TableEntry{
			Name:        name,
			File:        fileRel,
			TombFile:    tombRel,
			Rows:        cur.Table.NumRows(),
			Cols:        cur.Table.NumCols(),
			Precision:   manifestPrecision(e.tablePrec.get(name)),
			TunedKnob:   e.tunedKnobFor(name),
			Incarnation: ts.mt.Incarnation,
			RowGen:      cur.Gen,
		})
		d.mu.Unlock()
		folds = append(folds, folded{ts: ts, gen: cur.Gen, oldFiles: old})
		return true
	})
	if foldErr != nil {
		return SnapshotInfo{}, foldErr
	}

	// The manifest write is the commit point: File/TombFile/RowGen flip
	// together, so a crash on either side of it recovers consistently
	// (before: old files + full WAL replay; after: new files + records at
	// or below RowGen skipped).
	d.mu.Lock()
	if err := d.manifest.Write(d.layout.ManifestPath()); err != nil {
		d.mu.Unlock()
		return SnapshotInfo{}, err
	}
	info.Tables = len(d.manifest.Tables)
	d.snapshots++
	d.mu.Unlock()

	// Committed: advance checkpoint generations, truncate the WAL, and
	// best-effort remove superseded checkpoint files (a crash here leaves
	// orphans for the open-time sweep).
	for _, f := range folds {
		f.ts.mt.SetCheckpointGen(f.gen)
		for _, rel := range f.oldFiles {
			_ = os.Remove(d.layout.Resolve(rel))
		}
	}
	if len(folds) > 0 {
		durable.SyncDir(d.layout.TableDir())
	}
	info.Checkpointed = len(folds)
	if e.mut.wal != nil {
		if err := e.mut.wal.Reset(); err != nil {
			return SnapshotInfo{}, err
		}
		e.mut.checkpoints.Add(1)
		info.WalBytes = e.mut.wal.Stats().SizeBytes
	}

	info.LogBytes = d.log.Stats().Bytes
	info.Elapsed = time.Since(start)
	return info, nil
}

// persistTable mirrors one catalog registration into the data directory.
// Memory-only engines return nil immediately.
func (e *Engine) persistTable(name string, t *relational.Table) error {
	d := e.durable
	if d == nil {
		return nil
	}
	name = strings.ToLower(name) // the catalog's canonical form
	path := d.layout.TablePath(name)
	if err := durable.WriteTableFile(path, t); err != nil {
		return fmt.Errorf("%w: table %q: %v", ErrPersist, name, err)
	}
	// The fresh registration's incarnation rides in the entry, so WAL
	// records logged from here on replay only into this table, and a
	// predecessor's records never do.
	var inc uint64
	if ts := e.mut.get(name); ts != nil {
		inc = ts.mt.Incarnation
	}
	d.mu.Lock()
	var stale []string
	for _, entry := range d.manifest.Tables {
		if entry.Name == name {
			if entry.File != "" && entry.File != d.layout.TableFileRel(name) {
				stale = append(stale, entry.File)
			}
			if entry.TombFile != "" {
				stale = append(stale, entry.TombFile)
			}
		}
	}
	d.manifest.Upsert(durable.TableEntry{
		Name:        name,
		File:        d.layout.TableFileRel(name),
		Rows:        t.NumRows(),
		Cols:        t.NumCols(),
		Precision:   manifestPrecision(e.tablePrec.get(name)),
		TunedKnob:   e.tunedKnobFor(name),
		Incarnation: inc,
	})
	if err := d.manifest.Write(d.layout.ManifestPath()); err != nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: manifest: %v", ErrPersist, err)
	}
	d.mu.Unlock()
	// A replaced table's checkpoint files are dead weight now; remove the
	// ones the old entry referenced (sweep catches any we miss).
	for _, rel := range stale {
		_ = os.Remove(d.layout.Resolve(rel))
	}
	if len(stale) > 0 {
		durable.SyncDir(d.layout.TableDir())
	}
	return nil
}

// manifestPrecision renders a knob for the manifest: unset stays "" so
// unknobbed tables keep a minimal entry.
func manifestPrecision(p quant.Precision) string {
	if p == quant.PrecisionAuto {
		return ""
	}
	return p.String()
}

// persistTablePrecision mirrors one precision-knob change into the
// manifest. Memory-only engines return nil immediately.
func (e *Engine) persistTablePrecision(name string, p quant.Precision) error {
	d := e.durable
	if d == nil {
		return nil
	}
	name = strings.ToLower(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.manifest.Tables {
		if d.manifest.Tables[i].Name == name {
			d.manifest.Tables[i].Precision = manifestPrecision(p)
			if err := d.manifest.Write(d.layout.ManifestPath()); err != nil {
				return fmt.Errorf("%w: manifest: %v", ErrPersist, err)
			}
			return nil
		}
	}
	// Table registered but not persisted (e.g. a prior persist failure):
	// the knob is live in memory; nothing durable to update.
	return nil
}

// tunedKnobFor is the manifest's view of a table's tuner state: the
// tuned knob value, or 0 when the tuner has never moved it.
func (e *Engine) tunedKnobFor(name string) int {
	if knob, ok := e.feedback.TunedKnob(name); ok {
		return knob
	}
	return 0
}

// persistTableKnob mirrors one tuner move into the manifest, so a restart
// resumes from the tuned setting instead of re-learning it. Memory-only
// engines return nil immediately.
func (e *Engine) persistTableKnob(name string, knob int) error {
	d := e.durable
	if d == nil {
		return nil
	}
	name = strings.ToLower(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.manifest.Tables {
		if d.manifest.Tables[i].Name == name {
			d.manifest.Tables[i].TunedKnob = knob
			if err := d.manifest.Write(d.layout.ManifestPath()); err != nil {
				return fmt.Errorf("%w: manifest: %v", ErrPersist, err)
			}
			return nil
		}
	}
	// Table registered but not persisted: the knob is live in memory;
	// nothing durable to update.
	return nil
}

// unpersistTable mirrors one catalog drop. Best effort: the catalog drop
// already happened, and a stale file without a manifest entry is an
// orphan the next Open ignores.
func (e *Engine) unpersistTable(name string) {
	d := e.durable
	if d == nil {
		return
	}
	name = strings.ToLower(name)
	var files []string
	d.mu.Lock()
	for _, entry := range d.manifest.Tables {
		if entry.Name == name {
			if entry.File != "" {
				files = append(files, d.layout.Resolve(entry.File))
			}
			if entry.TombFile != "" {
				files = append(files, d.layout.Resolve(entry.TombFile))
			}
		}
	}
	if d.manifest.Remove(name) {
		_ = d.manifest.Write(d.layout.ManifestPath())
	}
	d.mu.Unlock()
	files = append(files, d.layout.TablePath(name), d.layout.TombPath(name))
	for _, f := range files {
		_ = os.Remove(f)
	}
	// Sync the directory so the removes survive a crash — otherwise a
	// recreated same-name table could resurrect the old files' contents.
	durable.SyncDir(d.layout.TableDir())
}

// DurableStats is the persistence arm's observability surface.
type DurableStats struct {
	// DataDir is the engine's data directory.
	DataDir string `json:"data_dir"`
	// LoadedEntries is how many cache entries Open replayed from the log.
	LoadedEntries int64 `json:"loaded_entries"`
	// LoadedTables is how many tables Open recovered from the manifest.
	LoadedTables int `json:"loaded_tables"`
	// Persister describes the write-behind queue.
	Persister durable.PersisterStats `json:"persister"`
	// Log describes the segment log, including recovery findings.
	Log durable.LogStats `json:"log"`
	// Snapshots counts successful Snapshot calls.
	Snapshots int64 `json:"snapshots"`
	// Warnings lists non-fatal recovery findings (skipped tables,
	// truncated segments).
	Warnings []string `json:"warnings,omitempty"`
}

// durableStats snapshots the durable layer, or nil for memory-only
// engines.
func (e *Engine) durableStats() *DurableStats {
	d := e.durable
	if d == nil {
		return nil
	}
	d.mu.Lock()
	snaps := d.snapshots
	warnings := append([]string(nil), d.warnings...)
	d.mu.Unlock()
	ls := d.log.Stats()
	warnings = append(warnings, ls.Recovery.Reasons...)
	return &DurableStats{
		DataDir:       d.layout.Dir,
		LoadedEntries: d.loadedEntries,
		LoadedTables:  d.loadedTables,
		Persister:     d.persister.Stats(),
		Log:           ls,
		Snapshots:     snaps,
		Warnings:      warnings,
	}
}
