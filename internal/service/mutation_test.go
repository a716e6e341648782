package service

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"ejoin/internal/relational"
)

// matchKey flattens a result's matches into a canonical comparable form.
func matchKey(res *QueryResult) string {
	keys := make([]string, len(res.Matches))
	for i, m := range res.Matches {
		keys[i] = fmt.Sprintf("%d:%d:%.4f", m.Left, m.Right, m.Sim)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func upsertRightCSV(t *testing.T, e *Engine, rows ...string) MutationResult {
	t.Helper()
	res, err := e.UpsertCSV(context.Background(), "right", "text", strings.NewReader("text\n"+strings.Join(rows, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMutationQueryVisibility(t *testing.T) {
	e, _ := openTestEngine(t, "")
	defer e.Close()
	ingestPair(t, e)
	baseline := runQuery(t, e)

	// Upserting an exact duplicate of a left row must add at least its
	// sim=1.0 match; the pre-upsert matches survive untouched.
	res := upsertRightCSV(t, e, "giraffe")
	if res.Gen != 1 || res.Upserted != 1 || res.Replaced != 0 || res.LiveRows != 5 {
		t.Fatalf("upsert result %+v", res)
	}
	grown := runQuery(t, e)
	if len(grown.Matches) <= len(baseline.Matches) {
		t.Fatalf("matches after upsert %d, baseline %d", len(grown.Matches), len(baseline.Matches))
	}

	// Replacing by key appends a new physical row and tombstones the old:
	// the match set must not double-count the key.
	res = upsertRightCSV(t, e, "giraffe")
	if res.Replaced != 1 || res.LiveRows != 5 {
		t.Fatalf("replacing upsert result %+v", res)
	}
	replaced := runQuery(t, e)
	if len(replaced.Matches) != len(grown.Matches) {
		t.Fatalf("matches after key replace %d, want %d", len(replaced.Matches), len(grown.Matches))
	}

	// Deleting the key restores the exact baseline match set.
	del, err := e.DeleteRows(context.Background(), "right", "text", []string{"giraffe", "nosuch"})
	if err != nil {
		t.Fatal(err)
	}
	if del.Deleted != 1 || del.Missing != 1 || del.LiveRows != 4 {
		t.Fatalf("delete result %+v", del)
	}
	if got := runQuery(t, e); matchKey(got) != matchKey(baseline) {
		t.Fatalf("matches after delete:\n%s\nbaseline:\n%s", matchKey(got), matchKey(baseline))
	}
}

// TestMutationWALReplayZeroModelCalls is the headline acceptance check: a
// killed-and-restarted durable server replays its WAL tail and serves
// byte-identical results with zero model calls.
func TestMutationWALReplayZeroModelCalls(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	upsertRightCSV(t, e1, "giraffe")
	if _, err := e1.DeleteRows(context.Background(), "right", "text", []string{"zebra"}); err != nil {
		t.Fatal(err)
	}
	mutated := runQuery(t, e1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, counting2 := openTestEngine(t, dir)
	defer e2.Close()
	st := e2.Stats()
	if st.Mutation == nil || st.Mutation.ReplayedRecords != 2 {
		t.Fatalf("mutation stats after reopen: %+v", st.Mutation)
	}
	if st.Mutation.Tombstones == 0 {
		t.Fatal("tombstones lost across restart")
	}
	warm := runQuery(t, e2)
	if got := counting2.Calls(); got != 0 {
		t.Errorf("warm query after WAL replay made %d model calls, want 0", got)
	}
	if matchKey(warm) != matchKey(mutated) {
		t.Fatalf("replayed matches differ:\n%s\nvs\n%s", matchKey(warm), matchKey(mutated))
	}
	if gen, ok := tableGen(e2, "right"); !ok || gen != 2 {
		t.Fatalf("replayed generation %d/%v, want 2", gen, ok)
	}
}

func TestMutationWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	intact := upsertRightCSV(t, e1, "giraffe")
	upsertRightCSV(t, e1, "zebra stripes")
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last WAL append mid-record, as a crash during write would.
	walPath := dir + "/wal.log"
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	e2, _ := openTestEngine(t, dir)
	defer e2.Close()
	st := e2.Stats()
	if st.Mutation.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records past a torn tail, want 1", st.Mutation.ReplayedRecords)
	}
	if st.Mutation.WAL == nil || st.Mutation.WAL.TruncatedBytes == 0 {
		t.Fatalf("torn tail not truncated: %+v", st.Mutation.WAL)
	}
	if gen, _ := tableGen(e2, "right"); gen != intact.Gen {
		t.Fatalf("recovered generation %d, want last intact %d", gen, intact.Gen)
	}
	runQuery(t, e2) // and the recovered table still serves
}

func TestMutationSnapshotCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	upsertRightCSV(t, e1, "giraffe")
	if _, err := e1.DeleteRows(context.Background(), "right", "text", []string{"zebra"}); err != nil {
		t.Fatal(err)
	}
	mutated := runQuery(t, e1)

	info, err := e1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Checkpointed != 1 {
		t.Fatalf("checkpointed %d tables, want 1 (only right mutated)", info.Checkpointed)
	}
	if info.WalBytes >= e1.Stats().Mutation.WAL.SizeBytes+1 && info.WalBytes > 64 {
		t.Fatalf("wal not truncated: %d bytes", info.WalBytes)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// The reboot recovers from checkpoint files + tomb sidecar alone: no
	// WAL records left to replay, tombstones and results intact.
	e2, counting2 := openTestEngine(t, dir)
	defer e2.Close()
	st := e2.Stats()
	if st.Mutation.ReplayedRecords != 0 || st.Mutation.SkippedRecords != 0 {
		t.Fatalf("records survived the checkpoint: %+v", st.Mutation)
	}
	if st.Mutation.Tombstones == 0 {
		t.Fatal("tomb sidecar lost the delete")
	}
	warm := runQuery(t, e2)
	if counting2.Calls() != 0 {
		t.Errorf("post-checkpoint warm query made %d model calls", counting2.Calls())
	}
	if matchKey(warm) != matchKey(mutated) {
		t.Fatalf("post-checkpoint matches differ:\n%s\nvs\n%s", matchKey(warm), matchKey(mutated))
	}

	// Mutations after the checkpoint start a fresh WAL tail and replay on
	// top of the checkpointed generation.
	upsertRightCSV(t, e2, "barbecue")
	final := runQuery(t, e2)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, _ := openTestEngine(t, dir)
	defer e3.Close()
	if st := e3.Stats(); st.Mutation.ReplayedRecords != 1 {
		t.Fatalf("post-checkpoint tail replayed %d records, want 1", st.Mutation.ReplayedRecords)
	}
	if got := runQuery(t, e3); matchKey(got) != matchKey(final) {
		t.Fatalf("checkpoint+tail recovery diverged")
	}
}

// TestMutationDropRecreateNoLeak: a dropped-then-recreated table must not
// inherit the predecessor's WAL records, tombstones, or generations
// (satellite: drop-path audit — incarnation ids gate replay).
func TestMutationDropRecreateNoLeak(t *testing.T) {
	dir := t.TempDir()
	e1, _ := openTestEngine(t, dir)
	ingestPair(t, e1)
	upsertRightCSV(t, e1, "giraffe")
	if _, err := e1.DeleteRows(context.Background(), "right", "text", []string{"barbecues"}); err != nil {
		t.Fatal(err)
	}
	if !e1.DropTable("right") {
		t.Fatal("drop failed")
	}
	// Recreate under the same name with the original rows.
	schema := relational.Schema{{Name: "text", Type: relational.String}}
	if _, err := e1.RegisterCSV("right", schema, strings.NewReader("text\nbarbecues\ndatabases\nespressos\nzebra\n"), false); err != nil {
		t.Fatal(err)
	}
	fresh := runQuery(t, e1)
	if gen, ok := tableGen(e1, "right"); !ok || gen != 0 {
		t.Fatalf("recreated table starts at gen %d, want 0", gen)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, _ := openTestEngine(t, dir)
	defer e2.Close()
	st := e2.Stats()
	// The old incarnation's two WAL records must be skipped, not applied.
	if st.Mutation.ReplayedRecords != 0 || st.Mutation.SkippedRecords != 2 {
		t.Fatalf("recreated table replay: %+v", st.Mutation)
	}
	if st.Mutation.Tombstones != 0 {
		t.Fatalf("ghost tombstones leaked: %d", st.Mutation.Tombstones)
	}
	if got := runQuery(t, e2); matchKey(got) != matchKey(fresh) {
		t.Fatalf("recreated table diverged after restart")
	}
}

// TestMutationConcurrentReadersSeeWholeGenerations hammers queries while a
// writer flips the right table between two states with multi-row batches.
// Every reader must observe one of the two quiescent match sets — never a
// half-applied batch.
func TestMutationConcurrentReadersSeeWholeGenerations(t *testing.T) {
	e, _ := openTestEngine(t, "")
	defer e.Close()
	ingestPair(t, e)

	// Physical right-row ids change on every upsert (replaced rows are
	// appended, old ones tombstoned), so compare the logical match shape:
	// left row + similarity. A half-applied batch would surface as exactly
	// one of the two sim=1.0 pairs.
	logicalKey := func(res *QueryResult) string {
		keys := make([]string, len(res.Matches))
		for i, m := range res.Matches {
			keys[i] = fmt.Sprintf("%d:%.4f", m.Left, m.Sim)
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}

	// Quiescent state A: baseline. State B: baseline + two exact-dup rows
	// added in ONE batch.
	stateA := logicalKey(runQuery(t, e))
	upsertRightCSV(t, e, "giraffe", "barbecue")
	stateB := logicalKey(runQuery(t, e))
	if _, err := e.DeleteRows(context.Background(), "right", "text", []string{"giraffe", "barbecue"}); err != nil {
		t.Fatal(err)
	}
	if stateA == stateB {
		t.Fatal("states indistinguishable; test premise broken")
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				if _, err := e.UpsertCSV(context.Background(), "right", "text", strings.NewReader("text\ngiraffe\nbarbecue\n")); err != nil {
					t.Error(err)
					return
				}
			} else {
				if _, err := e.DeleteRows(context.Background(), "right", "text", []string{"giraffe", "barbecue"}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				res, err := e.Query(context.Background(), QueryRequest{SQL: durableTestQuery})
				if err != nil {
					t.Error(err)
					return
				}
				if got := logicalKey(res); got != stateA && got != stateB {
					t.Errorf("reader saw a mixed generation:\n%s\nwant one of\n%s\n%s", got, stateA, stateB)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// vecTable builds an {id:int64, vec:vector} table from angles on the unit
// circle, so nearest-neighbor order is known in closed form.
func vecTable(t *testing.T, ids []int64, angles []float64) *relational.Table {
	t.Helper()
	vc := &relational.VectorColumn{Dim: 4}
	for _, a := range angles {
		vc.Data = append(vc.Data, float32(math.Cos(a)), float32(math.Sin(a)), 0, 0)
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "id", Type: relational.Int64}, {Name: "vec", Type: relational.Vector}},
		[]relational.Column{relational.Int64Column(ids), vc},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestMutationIndexMaintenance drives the maintained-index path end to
// end: registration builds an IVF index, upserts extend it before publish,
// churn past the deleted fraction schedules a background re-cluster, and
// top-k queries pin a covering index while tombstones stay filtered.
func TestMutationIndexMaintenance(t *testing.T) {
	e, err := Open(Config{Threads: 2, IndexTables: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ids := make([]int64, 20)
	angles := make([]float64, 20)
	for i := range ids {
		ids[i] = int64(i)
		angles[i] = float64(i) * 0.3
	}
	if err := e.RegisterTable("items", vecTable(t, ids, angles)); err != nil {
		t.Fatal(err)
	}
	// One probe at angle 1.55: nearest item is 5 (angle 1.5), runner-up 6.
	if err := e.RegisterTable("probe", vecTable(t, []int64{0}, []float64{1.55})); err != nil {
		t.Fatal(err)
	}

	topOne := func() int {
		t.Helper()
		res, err := e.Query(context.Background(), QueryRequest{Join: &JoinRequest{
			LeftTable: "probe", LeftColumn: "vec",
			RightTable: "items", RightColumn: "vec",
			Kind: "topk", K: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 {
			t.Fatalf("topk matches: %+v", res.Matches)
		}
		return res.Matches[0].Right
	}

	if got := topOne(); got != 5 {
		t.Fatalf("initial top-1 = row %d, want 5", got)
	}

	// Delete the winner plus enough rows to cross the 30% churn threshold.
	del, err := e.DeleteRows(context.Background(), "items", "id", []string{"5", "13", "14", "15", "16", "17", "18", "19"})
	if err != nil {
		t.Fatal(err)
	}
	if del.Deleted != 8 {
		t.Fatalf("delete result %+v", del)
	}
	if !del.Reclustering {
		t.Fatal("40% churn did not schedule a re-cluster")
	}
	e.WaitForMaintenance()
	if st := e.Stats(); st.Mutation.Reclusters != 1 {
		t.Fatalf("completed reclusters = %d, want 1", st.Mutation.Reclusters)
	}
	// Tombstones filtered: the deleted winner must not resurface.
	if got := topOne(); got != 6 {
		t.Fatalf("post-delete top-1 = row %d, want runner-up 6", got)
	}

	// An upsert lands in the index before publish: an exact-probe duplicate
	// (angle 1.55, new key) becomes the new winner at its appended row id.
	if _, err := e.UpsertRows(context.Background(), "items", "id", vecTable(t, []int64{99}, []float64{1.55})); err != nil {
		t.Fatal(err)
	}
	if got := topOne(); got != 20 {
		t.Fatalf("post-upsert top-1 = row %d, want appended row 20", got)
	}
}

// TestMutationChurnDoesNotGrowStore: under upsert/delete churn the shared
// store tracks the tables' live text instead of every text they ever
// held, and a retired text that is still live in another table keeps its
// entry (no model call to bring it back).
func TestMutationChurnDoesNotGrowStore(t *testing.T) {
	e, counting := openTestEngine(t, "")
	defer e.Close()
	ingestPair(t, e)
	runQuery(t, e)
	base := e.Store().Len()

	del := func(key string) {
		t.Helper()
		if _, err := e.DeleteRows(context.Background(), "right", "text", []string{key}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		text := fmt.Sprintf("churn%d", i)
		upsertRightCSV(t, e, text)
		runQuery(t, e)
		del(text)
	}
	runQuery(t, e)
	if got := e.Store().Len(); got > base+2 {
		t.Errorf("store holds %d entries after churn over %d live texts", got, base)
	}

	// "giraffe" lives in left too: retiring right's copy must not cost the
	// next queries a model call, however many mutations follow.
	upsertRightCSV(t, e, "giraffe")
	runQuery(t, e)
	calls := counting.Calls()
	del("giraffe")
	runQuery(t, e)
	del("zebra")
	runQuery(t, e)
	if got := counting.Calls(); got != calls {
		t.Errorf("%d model calls after retiring a text another table still holds", got-calls)
	}
}

// tableGen is the named table's current row-level generation (0 and false
// when the table has no mutation state).
func tableGen(e *Engine, name string) (uint64, bool) {
	ts := e.mut.get(name)
	if ts == nil {
		return 0, false
	}
	return ts.mt.Gen(), true
}
