package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ejoin/internal/durable"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
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

// TestDurableLogOfPerTextRecordsBootsWarm: an embedding log holding only
// per-text (fingerprint, text, vector) records — what every data dir
// written before column chunks holds, and what a snapshot still writes —
// boots warm: the first query builds its chunks from those records with
// zero model calls, including a text two tables share. After a snapshot
// (which compacts the chunks' adopted vectors back to such records) the
// next boot is warm again.
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
	// Replace the log with one record per distinct text, written directly.
	embDir := durable.Layout{Dir: dir}.EmbDir()
	if err := os.RemoveAll(embDir); err != nil {
		t.Fatal(err)
	}
	log, err := durable.OpenLog(embDir, durable.LogConfig{}, func(durable.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range strings.Fields("barbecue database espresso giraffe barbecues databases espressos zebra") {
		raw, err := m.Embed(text)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float32, len(raw))
		vec.NormalizeInto(v, raw)
		if err := log.Append(durable.Record{Fingerprint: embstore.Fingerprint(m), Input: text, Vec: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	for boot := 0; boot < 2; boot++ {
		e, counting := openTestEngine(t, dir)
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

func TestDurableCorruptTailRecovered(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	cold := runQuery(t, e1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the embedding log's tail: chop off bytes (torn write) —
	// recovery must truncate and keep serving correct results.
	embDir := filepath.Join(dir, "emb")
	segs, err := os.ReadDir(embDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	segPath := filepath.Join(embDir, segs[len(segs)-1].Name())
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-11); err != nil {
		t.Fatal(err)
	}

	e2, counting2 := openTestEngine(t, dir)
	st := e2.Stats()
	if st.Durable.Log.Recovery.TruncatedBytes == 0 {
		t.Error("torn tail not detected at recovery")
	}
	warm := runQuery(t, e2)
	// The one entry lost to the torn tail is recomputed, not served as
	// garbage: results must match the cold run exactly.
	if len(warm.Matches) != len(cold.Matches) {
		t.Fatalf("matches after torn-tail recovery: %d, want %d", len(warm.Matches), len(cold.Matches))
	}
	if counting2.Calls() > 2 {
		t.Errorf("recovery recomputed %d embeddings; a torn tail should cost at most the lost suffix", counting2.Calls())
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte mid-log: checksum rejection must skip it (and the
	// unreachable rest of that segment) rather than crash or mis-serve.
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 40 {
		t.Skip("segment too small to corrupt mid-file")
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e3, _ := openTestEngine(t, dir)
	defer e3.Close()
	if warns := e3.Stats().Durable.Warnings; len(warns) == 0 {
		t.Error("flipped byte produced no recovery warning")
	}
	final := runQuery(t, e3)
	if len(final.Matches) != len(cold.Matches) {
		t.Fatalf("matches after flipped-byte recovery: %d, want %d", len(final.Matches), len(cold.Matches))
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
	if info.LogBytes == 0 {
		t.Error("snapshot reports empty log")
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
