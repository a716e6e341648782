package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ejoin/internal/model"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
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

// TestDurablePrecisionKnobSurvivesRestart: a per-table precision opt-in
// is part of the table's durable state — a warm reboot must serve the
// same quantized joins the operator configured, and replacing a table
// must clear the persisted knob like the in-memory one.
func TestDurablePrecisionKnobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	if err := e1.SetTablePrecision("left", quant.PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	if res := runQuery(t, e1); res.Precision != "int8" {
		t.Fatalf("pre-restart precision %q", res.Precision)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, _ := openTestEngine(t, dir)
	if got := e2.TablePrecision("left"); got != quant.PrecisionInt8 {
		t.Fatalf("knob lost across restart: %v", got)
	}
	if res := runQuery(t, e2); res.Precision != "int8" {
		t.Fatalf("post-restart precision %q", res.Precision)
	}
	// Replacing the table clears the durable knob too.
	schema := relational.Schema{{Name: "text", Type: relational.String}}
	if _, err := e2.RegisterCSV("left", schema, strings.NewReader("text\nfresh\n"), true); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, _ := openTestEngine(t, dir)
	defer e3.Close()
	if got := e3.TablePrecision("left"); got != quant.PrecisionAuto {
		t.Fatalf("replaced table's knob came back: %v", got)
	}
}
