package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ejoin/internal/durable"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/mutation"
	"ejoin/internal/oracle"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// openTestEngine opens a durable engine over dir with a counting model,
// so tests can assert exactly how many embeddings a phase computed.
func openTestEngine(t *testing.T, dir string) (*Engine, *model.CountingModel) {
	t.Helper()
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	counting := model.NewCountingModel(base)
	e, err := Open(Config{Model: counting, DataDir: dir, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return e, counting
}

func ingestPair(t *testing.T, e *Engine) {
	t.Helper()
	schema := relational.Schema{{Name: "text", Type: relational.String}}
	if _, err := e.RegisterCSV("left", schema, strings.NewReader("text\nbarbecue\ndatabase\nespresso\ngiraffe\n"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterCSV("right", schema, strings.NewReader("text\nbarbecues\ndatabases\nespressos\nzebra\n"), false); err != nil {
		t.Fatal(err)
	}
}

const durableTestQuery = "SELECT * FROM left JOIN right ON SIM(left.text, right.text) >= 0.5"

func runQuery(t *testing.T, e *Engine) *QueryResult {
	t.Helper()
	res, err := e.Query(context.Background(), QueryRequest{SQL: durableTestQuery})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDurableWarmRestartZeroModelCalls(t *testing.T) {
	dir := t.TempDir()

	e1, counting1 := openTestEngine(t, dir)
	ingestPair(t, e1)
	cold := runQuery(t, e1)
	if counting1.Calls() == 0 {
		t.Fatal("cold query made no model calls; test premise broken")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process (fresh engine, fresh store, fresh model instance)
	// over the same directory: tables recovered, first repeated query
	// serves entirely from the replayed cache.
	e2, counting2 := openTestEngine(t, dir)
	defer e2.Close()
	st := e2.Stats()
	if st.Durable == nil {
		t.Fatal("durable engine reports no durable stats")
	}
	if st.Durable.LoadedTables != 2 {
		t.Fatalf("recovered %d tables, want 2", st.Durable.LoadedTables)
	}
	if st.Durable.LoadedEntries == 0 {
		t.Fatal("no cache entries recovered from the log")
	}
	if st.Mutation.ReplayedRecords != 0 || st.Mutation.SkippedRecords != 0 {
		t.Errorf("embedding records counted as mutation records: replayed %d, skipped %d",
			st.Mutation.ReplayedRecords, st.Mutation.SkippedRecords)
	}
	assertDataDirFiles(t, dir)
	warm := runQuery(t, e2)
	if got := counting2.Calls(); got != 0 {
		t.Errorf("warm restart first query made %d model calls, want 0", got)
	}
	if len(warm.Matches) != len(cold.Matches) {
		t.Fatalf("warm matches %d, cold %d", len(warm.Matches), len(cold.Matches))
	}
	for i := range warm.Matches {
		if warm.Matches[i] != cold.Matches[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, warm.Matches[i], cold.Matches[i])
		}
	}
}

// TestDurableManifestWithTunerFieldBootsWarm: a data dir whose manifest
// entry carries "tuned_knob" (what a build with the recall tuner wrote
// after a knob move) boots with its catalog and serves the repeated query
// with no model call; the next manifest write drops the field.
func TestDurableManifestWithTunerFieldBootsWarm(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	cold := runQuery(t, e1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	path := durable.Layout{Dir: dir}.ManifestPath()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	tables, _ := m["tables"].([]any)
	for _, entry := range tables {
		if entry := entry.(map[string]any); entry["name"] == "right" {
			entry["tuned_knob"] = 7
		}
	}
	if raw, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"tuned_knob": 7`) {
		t.Fatalf("manifest has no right-table entry to extend:\n%s", raw)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, counting := openTestEngine(t, dir)
	defer e2.Close()
	if st := e2.Stats().Durable; st.LoadedTables != 2 || len(st.Warnings) != 0 {
		t.Fatalf("recovered %d tables (warnings %v), want 2 and none", st.LoadedTables, st.Warnings)
	}
	if got := e2.Tables(); len(got) != 2 || got[0].Name != "left" || got[1].Name != "right" || got[1].Rows != 4 {
		t.Fatalf("recovered catalog %+v", got)
	}
	warm := runQuery(t, e2)
	if warm.Stats.ModelCalls != 0 || counting.Calls() != 0 {
		t.Errorf("repeated query reports model_calls %d (model saw %d), want 0", warm.Stats.ModelCalls, counting.Calls())
	}
	if len(warm.Matches) != len(cold.Matches) {
		t.Fatalf("warm matches %d, cold %d", len(warm.Matches), len(cold.Matches))
	}
	if _, err := e2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "tuned_knob") {
		t.Fatalf("rewritten manifest still carries tuned_knob:\n%s", raw)
	}
}

// TestDurableLogOfPerTextRecordsBootsWarm: a WAL whose embedding records
// are one per distinct text — what a snapshot writes, and what a data dir
// holds whose column chunks were never logged row by row — boots warm:
// the first query builds its chunks from those records with zero model
// calls, including a text two tables share. After a snapshot (which
// compacts the chunks' adopted vectors back to such records) the next
// boot is warm again.
func TestDurableLogOfPerTextRecordsBootsWarm(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	if _, err := e1.UpsertCSV(context.Background(), "right", "text", strings.NewReader("text\ngiraffe\n")); err != nil {
		t.Fatal(err)
	}
	want := runQuery(t, e1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	// Keep the WAL's mutation record; replace its embedding records with
	// one per distinct text, written directly.
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	var perText []mutation.Embedding
	for _, text := range strings.Fields("barbecue database espresso giraffe barbecues databases espressos zebra") {
		raw, err := m.Embed(text)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float32, len(raw))
		vec.NormalizeInto(v, raw)
		perText = append(perText, mutation.Embedding{Fingerprint: embstore.Fingerprint(m), Input: text, Vec: v})
	}
	rewriteWAL(t, dir, perText)

	for boot := 0; boot < 2; boot++ {
		e, counting := openTestEngine(t, dir)
		if st := e.Stats(); st.Durable.LoadedEntries != int64(len(perText)) && boot == 0 {
			t.Errorf("boot 0 loaded %d embedding records, want %d", st.Durable.LoadedEntries, len(perText))
		}
		got := runQuery(t, e)
		if counting.Calls() != 0 {
			t.Errorf("boot %d: first query made %d model calls, want 0", boot, counting.Calls())
		}
		if matchKey(got) != matchKey(want) {
			t.Errorf("boot %d: matches differ:\n%s\nvs\n%s", boot, matchKey(got), matchKey(want))
		}
		if boot == 0 {
			if _, err := e.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// rewriteWAL replaces the embedding records of dir's WAL with embs,
// keeping its mutation records, and returns the embedding records it
// dropped.
func rewriteWAL(t *testing.T, dir string, embs []mutation.Embedding) []mutation.Embedding {
	t.Helper()
	var muts []mutation.Record
	var dropped []mutation.Embedding
	w, err := mutation.OpenWAL(durable.Layout{Dir: dir}.WalPath(), func(rec mutation.Record) error {
		if rec.Kind == mutation.KindEmbedding {
			dropped = append(dropped, rec.Emb)
		} else {
			muts = append(muts, rec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Rewrite(func(emit func(mutation.Record) error) error {
		for _, rec := range muts {
			if err := emit(rec); err != nil {
				return err
			}
		}
		for _, e := range embs {
			if err := emit(mutation.Record{Kind: mutation.KindEmbedding, Emb: e}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dropped
}

// TestDurableSegmentLogMovesIntoWAL: a data dir in the layout that kept
// embeddings in a segment log beside the WAL (emb/seg-*.log, magic
// "EJSEG001") boots warm: Open moves the records into the WAL and removes
// emb/, the first query makes zero model calls, and so does the next boot,
// which has only the WAL to read.
func TestDurableSegmentLogMovesIntoWAL(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	upsertRightCSV(t, e1, "giraffe")
	want := runQuery(t, e1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	embs := rewriteWAL(t, dir, nil)
	if len(embs) == 0 {
		t.Fatal("the WAL logged no embedding records; test premise broken")
	}
	// Two segments, as a log that rotated would have them.
	half := len(embs) / 2
	for i, part := range [][]mutation.Embedding{embs[:half], embs[half:]} {
		writeSegment(t, filepath.Join(dir, "emb", fmt.Sprintf("seg-%010d.log", i+1)), part)
	}

	for boot := 0; boot < 2; boot++ {
		e, counting := openTestEngine(t, dir)
		st := e.Stats()
		if wantLoaded := int64(len(embs)); st.Durable.LoadedEntries != wantLoaded {
			t.Errorf("boot %d loaded %d embedding records, want %d", boot, st.Durable.LoadedEntries, wantLoaded)
		}
		if st.Mutation.ReplayedRecords != 1 || st.Mutation.SkippedRecords != 0 || len(st.Durable.Warnings) != 0 {
			t.Errorf("boot %d: replayed %d, skipped %d (warnings %v), want 1 and 0",
				boot, st.Mutation.ReplayedRecords, st.Mutation.SkippedRecords, st.Durable.Warnings)
		}
		assertDataDirFiles(t, dir)
		got := runQuery(t, e)
		if counting.Calls() != 0 {
			t.Errorf("boot %d: first query made %d model calls, want 0", boot, counting.Calls())
		}
		if matchKey(got) != matchKey(want) {
			t.Errorf("boot %d: matches differ:\n%s\nvs\n%s", boot, matchKey(got), matchKey(want))
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// writeSegment writes embs as one file of the segment log: the magic,
// then per record u32 len | u32 crc32c | an embedding record's body.
func writeSegment(t *testing.T, path string, embs []mutation.Embedding) {
	t.Helper()
	le := binary.LittleEndian
	out := []byte("EJSEG001")
	for _, e := range embs {
		p := le.AppendUint32(nil, uint32(len(e.Fingerprint)))
		p = le.AppendUint32(p, uint32(len(e.Input)))
		p = le.AppendUint32(p, uint32(len(e.Vec)))
		p = append(append(p, e.Fingerprint...), e.Input...)
		for _, x := range e.Vec {
			p = le.AppendUint32(p, math.Float32bits(x))
		}
		out = le.AppendUint32(out, uint32(len(p)))
		out = le.AppendUint32(out, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
		out = append(out, p...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertDataDirFiles checks that dir holds the manifest, the table
// directory and the WAL, and nothing else.
func assertDataDirFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range entries {
		names = append(names, de.Name())
	}
	if got := strings.Join(names, " "); got != "MANIFEST.json tables wal.log" {
		t.Errorf("data dir holds %q, want MANIFEST.json, tables and wal.log", got)
	}
}

func TestDurableCorruptTailRecovered(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	cold := runQuery(t, e1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the WAL's tail, which holds the query's embedding records:
	// chop off bytes (torn write) — recovery must truncate and keep
	// serving correct results.
	walPath := durable.Layout{Dir: dir}.WalPath()
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-11); err != nil {
		t.Fatal(err)
	}

	e2, counting2 := openTestEngine(t, dir)
	st := e2.Stats()
	if st.Mutation.WAL.TruncatedBytes == 0 || len(st.Durable.Warnings) == 0 {
		t.Errorf("torn tail not detected at recovery (wal %+v, warnings %v)", st.Mutation.WAL, st.Durable.Warnings)
	}
	warm := runQuery(t, e2)
	// The one entry lost to the torn tail is recomputed, not served as
	// garbage: results must match the cold run exactly.
	if matchKey(warm) != matchKey(cold) {
		t.Fatalf("matches after torn-tail recovery:\n%s\nwant\n%s", matchKey(warm), matchKey(cold))
	}
	if counting2.Calls() > 2 {
		t.Errorf("recovery recomputed %d embeddings; a torn tail should cost at most the lost suffix", counting2.Calls())
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte mid-log: checksum rejection must cut the log there
	// rather than crash or mis-serve.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e3, _ := openTestEngine(t, dir)
	defer e3.Close()
	if warns := e3.Stats().Durable.Warnings; len(warns) == 0 {
		t.Error("flipped byte produced no recovery warning")
	}
	final := runQuery(t, e3)
	if matchKey(final) != matchKey(cold) {
		t.Fatalf("matches after flipped-byte recovery:\n%s\nwant\n%s", matchKey(final), matchKey(cold))
	}
}

func TestDurableDropTableSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	if !e1.DropTable("right") {
		t.Fatal("drop failed")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, _ := openTestEngine(t, dir)
	defer e2.Close()
	if e2.HasTable("right") {
		t.Error("dropped table resurrected by restart")
	}
	if !e2.HasTable("left") {
		t.Error("kept table lost by restart")
	}
}

func TestDurableSnapshotCompactsLog(t *testing.T) {
	dir := t.TempDir()
	e, counting := openTestEngine(t, dir)
	defer e.Close()
	ingestPair(t, e)
	runQuery(t, e)
	if counting.Calls() == 0 {
		t.Fatal("no model calls; nothing persisted")
	}

	info, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Entries == 0 {
		t.Error("snapshot compacted zero entries")
	}
	if info.Tables != 2 {
		t.Errorf("snapshot manifest has %d tables, want 2", info.Tables)
	}
	if info.WalBytes <= 8 {
		t.Errorf("snapshot reports a WAL of %d bytes, want its embedding records", info.WalBytes)
	}
	st := e.Stats()
	if st.Durable.Snapshots != 1 {
		t.Errorf("snapshots counter = %d", st.Durable.Snapshots)
	}

	// Per-model entry counts surface through ServerStats (the /stats fix).
	if len(st.StoreModels) == 0 {
		t.Error("ServerStats.StoreModels empty after cached queries")
	}
	total := 0
	for _, n := range st.StoreModels {
		total += n
	}
	if total != st.Store.Entries {
		t.Errorf("StoreModels total %d != store entries %d", total, st.Store.Entries)
	}
}

func TestMemoryOnlyEngineSkipsDurability(t *testing.T) {
	e, err := Open(Config{Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if e.durable != nil {
		t.Error("memory-only engine has a durable layer")
	}
	if st := e.Stats(); st.Durable != nil {
		t.Error("memory-only engine reports durable stats")
	}
	if _, err := e.Snapshot(); err == nil {
		t.Error("snapshot on memory-only engine must error")
	}
	if err := e.Close(); err != nil {
		t.Error(err)
	}
	if err := e.Close(); err != nil {
		t.Error("Close not idempotent:", err)
	}
}

func TestConcurrentCreateOnlyOneWins(t *testing.T) {
	e, err := Open(Config{Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	schema := relational.Schema{{Name: "text", Type: relational.String}}

	const racers = 16
	var wg sync.WaitGroup
	var created, conflicted atomic.Int64
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			csv := fmt.Sprintf("text\nrow-from-racer-%d\n", i)
			_, err := e.RegisterCSV("contested", schema, strings.NewReader(csv), false)
			switch {
			case err == nil:
				created.Add(1)
			case errors.Is(err, ErrTableExists):
				conflicted.Add(1)
			default:
				t.Errorf("racer %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if created.Load() != 1 || conflicted.Load() != racers-1 {
		t.Errorf("created=%d conflicted=%d, want 1/%d: the existence check must be atomic with registration",
			created.Load(), conflicted.Load(), racers-1)
	}
}

// TestDurableManifestWithPrecisionFieldLoadsExact: a data dir whose
// manifest entries carry "precision" (what a build with the per-table
// precision knob wrote, valid or not) boots with both tables and no
// warning, answers joins exactly as the F32 oracle does, and the next
// manifest write drops the field.
func TestDurableManifestWithPrecisionFieldLoadsExact(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	path := durable.Layout{Dir: dir}.ManifestPath()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	legacy := map[string]string{"left": "int8", "right": "bogus"}
	tables, _ := m["tables"].([]any)
	for _, entry := range tables {
		entry := entry.(map[string]any)
		if p, ok := legacy[entry["name"].(string)]; ok {
			entry["precision"] = p
		}
	}
	if raw, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"precision": "int8"`) || !strings.Contains(string(raw), `"precision": "bogus"`) {
		t.Fatalf("manifest has no left/right entries to extend:\n%s", raw)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, _ := openTestEngine(t, dir)
	defer e2.Close()
	if st := e2.Stats().Durable; st.LoadedTables != 2 || len(st.Warnings) != 0 {
		t.Fatalf("recovered %d tables (warnings %v), want 2 and none", st.LoadedTables, st.Warnings)
	}
	res := runQuery(t, e2)
	if len(res.Matches) == 0 {
		t.Fatal("join returned no matches; test premise broken")
	}
	checkAgainstOracle(t, e2, oracle.Spec{Threshold: 0.5}, res)

	if _, err := e2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "precision") {
		t.Fatalf("rewritten manifest still carries precision:\n%s", raw)
	}
}

// TestDurableSnapshotKeepsSpilledChunks: a snapshot logs the rows the
// column chunks hold in the store's spill tier too, not only the resident
// ones. Three 512-row tables embedded through a 48 KiB store leave most
// chunks spilled; the snapshot still writes all 1,536 vectors, and a
// reboot with an unbounded store answers the same joins with no model
// call.
func TestDurableSnapshotKeepsSpilledChunks(t *testing.T) {
	dir := t.TempDir()
	open := func(storeBytes int64) (*Engine, *model.CountingModel) {
		base, err := model.NewHashEmbedder(32)
		if err != nil {
			t.Fatal(err)
		}
		counting := model.NewCountingModel(base)
		e, err := Open(Config{Model: counting, DataDir: dir, Threads: 2, StoreBytes: storeBytes})
		if err != nil {
			t.Fatal(err)
		}
		return e, counting
	}
	const rows = 512
	schema := relational.Schema{{Name: "text", Type: relational.String}}
	queries := []string{
		"SELECT * FROM t0 JOIN t1 ON SIM(t0.text, t1.text) >= 0.9",
		"SELECT * FROM t1 JOIN t2 ON SIM(t1.text, t2.text) >= 0.9",
	}
	run := func(e *Engine) string {
		var out []string
		for _, q := range queries {
			res, err := e.Query(context.Background(), QueryRequest{SQL: q})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, matchKey(res))
		}
		return strings.Join(out, "|")
	}

	e1, counting1 := open(48 << 10)
	for tbl := 0; tbl < 3; tbl++ {
		var b strings.Builder
		b.WriteString("text\n")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&b, "table %d row %d\n", tbl, r)
		}
		if _, err := e1.RegisterCSV(fmt.Sprintf("t%d", tbl), schema, strings.NewReader(b.String()), false); err != nil {
			t.Fatal(err)
		}
	}
	want := run(e1)
	if got := counting1.Calls(); got != 3*rows {
		t.Fatalf("cold joins made %d model calls, want %d", got, 3*rows)
	}
	if st := e1.Stats().Store; st.Spilled == 0 {
		t.Fatalf("no chunk spilled (store %+v); test premise broken", st)
	}
	info, err := e1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Entries != 3*rows {
		t.Errorf("snapshot wrote %d embedding records, want %d", info.Entries, 3*rows)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, counting2 := open(0)
	defer e2.Close()
	if got := run(e2); got != want {
		t.Error("rebooted joins differ from the cold ones")
	}
	if got := counting2.Calls(); got != 0 {
		t.Errorf("rebooted joins made %d model calls, want 0", got)
	}
}
