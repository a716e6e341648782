package service

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/oracle"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

var compactVocab = strings.Fields("amber birch cedar delta ember fjord grove harbor island juniper kettle lantern")

func compactText(rng *rand.Rand) string {
	return compactVocab[rng.Intn(len(compactVocab))] + " " + compactVocab[rng.Intn(len(compactVocab))]
}

// docsTable is an (id, text) table.
func docsTable(t *testing.T, ids []int64, texts []string) *relational.Table {
	t.Helper()
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "id", Type: relational.Int64}, {Name: "text", Type: relational.String}},
		[]relational.Column{relational.Int64Column(ids), relational.StringColumn(texts)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// docsChurn registers docs (n rows) and probe (30 rows) on e and returns a
// step that applies one seeded mutation to docs on the engine it is given
// (e, or e rebooted): an upsert overwriting eight live keys and adding
// two, or (every third) a delete of five.
func docsChurn(t *testing.T, e *Engine, n int, seed int64) func(*Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, n)
	texts := make([]string, n)
	for i := range ids {
		ids[i], texts[i] = int64(i), compactText(rng)
	}
	if err := e.RegisterTable("docs", docsTable(t, ids, texts)); err != nil {
		t.Fatal(err)
	}
	pids := make([]int64, 30)
	ptexts := make([]string, 30)
	for i := range pids {
		pids[i], ptexts[i] = int64(i), compactText(rng)
	}
	if err := e.RegisterTable("probe", docsTable(t, pids, ptexts)); err != nil {
		t.Fatal(err)
	}
	live := append([]int64(nil), ids...)
	next, op := int64(n), 0
	pick := func() int64 {
		i := rng.Intn(len(live))
		id := live[i]
		live = append(live[:i], live[i+1:]...)
		return id
	}
	return func(e *Engine) {
		t.Helper()
		ctx := context.Background()
		op++
		if op%3 == 0 {
			var keys []string
			for j := 0; j < 5 && len(live) > 0; j++ {
				keys = append(keys, strconv.FormatInt(pick(), 10))
			}
			if _, err := e.DeleteRows(ctx, "docs", "id", keys); err != nil {
				t.Fatal(err)
			}
			return
		}
		var bids []int64
		for j := 0; j < 8 && len(live) > 0; j++ {
			bids = append(bids, pick())
		}
		bids = append(bids, next, next+1)
		next += 2
		btexts := make([]string, len(bids))
		for j := range bids {
			btexts[j] = compactText(rng)
		}
		live = append(live, bids...)
		if _, err := e.UpsertRows(ctx, "docs", "id", docsTable(t, bids, btexts)); err != nil {
			t.Fatal(err)
		}
	}
}

const compactQuery = "SELECT * FROM docs JOIN probe ON SIM(docs.text, probe.text) >= 0.6"

// checkOracle runs compactQuery and checks the reply against the oracle
// over the version of docs it pinned (no mutation runs concurrently).
func checkOracle(t *testing.T, e *Engine) {
	t.Helper()
	docs, _ := e.PinnedTable("docs")
	probe, _ := e.PinnedTable("probe")
	res, err := e.Query(context.Background(), QueryRequest{SQL: compactQuery})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := oracle.Join(e.Model(),
		oracle.Side{Table: docs.Table, Text: "text", Visible: docs.Visible},
		oracle.Side{Table: probe.Table, Text: "text", Visible: probe.Visible},
		oracle.Spec{Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if err := ans.Check(toOracle(res.Matches), 1e-5, 1); err != nil {
		t.Fatal(err)
	}
}

func toOracle(ms []core.Match) []oracle.Match {
	out := make([]oracle.Match, len(ms))
	for i, m := range ms {
		out[i] = oracle.Match{Left: m.Left, Right: m.Right, Sim: float64(m.Sim)}
	}
	return out
}

// docsLayout is the pinned docs version's physical rows, tombstoned ones
// marked.
func docsLayout(t *testing.T, e *Engine) string {
	t.Helper()
	pt, _ := e.PinnedTable("docs")
	texts, err := pt.Table.Strings("text")
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := pt.Table.Ints("id")
	live := relational.BitmapFromSelection(pt.Table.NumRows(), pt.Visible)
	var b strings.Builder
	for r := range texts {
		if pt.Visible != nil && !live.Get(r) {
			b.WriteByte('~')
		}
		fmt.Fprintf(&b, "%d=%s,", ids[r], texts[r])
	}
	return b.String()
}

// Under upsert/delete churn a durable engine's table holds at most
// 2 × live + 256 physical rows after every mutation and every answer is
// the oracle's. A checkpoint right after a compaction writes no tombstone
// sidecar, and a reboot — from that checkpoint, then mid-churn from the
// WAL — replays to the physical row order the live engine had.
func TestCompactionChurnMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTestEngine(t, dir)
	defer func() { e.Close() }()
	step := docsChurn(t, e, 300, 1)
	compactions := func() int64 { return e.Stats().Mutation.Compactions }
	for i := 0; compactions() < 2; i++ {
		if i > 400 {
			t.Fatal("400 mutations never compacted twice")
		}
		step(e)
		pt, _ := e.PinnedTable("docs")
		live := pt.Table.NumRows()
		if pt.Visible != nil {
			live = len(pt.Visible)
		}
		if phys := pt.Table.NumRows(); phys > 2*live+256 {
			t.Fatalf("mutation %d: %d physical rows for %d live", i, phys, live)
		}
		checkOracle(t, e)
	}

	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	tombs, _ := filepath.Glob(filepath.Join(dir, "*", "docs*.tomb"))
	if len(tombs) != 0 {
		t.Fatalf("a checkpoint of a compacted table wrote %v", tombs)
	}
	reboot := func() {
		t.Helper()
		want := docsLayout(t, e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e, _ = openTestEngine(t, dir)
		if got := docsLayout(t, e); got != want {
			t.Fatalf("reboot recovered\n%s\nthe live engine had\n%s", got, want)
		}
		checkOracle(t, e)
	}
	reboot()

	// Mid-churn: the WAL tail since the checkpoint crosses a compaction.
	for i, before := 0, compactions(); compactions() == before; i++ {
		if i > 400 {
			t.Fatal("400 mutations never compacted")
		}
		step(e)
	}
	step(e)
	reboot()
	if got := compactions(); got == 0 {
		t.Fatal("WAL replay did not count the compaction it replayed")
	}
	if entries, _ := os.ReadDir(dir); len(entries) == 0 {
		t.Fatal("data directory is empty")
	}
}

// Compacting a table whose column chunks are resident moves their vectors
// to the new lineage: the next query makes no model call, and the store
// keeps one copy per live row.
func TestCompactionCarriesResidentChunks(t *testing.T) {
	e, counting := openTestEngine(t, "")
	defer e.Close()
	docsChurn(t, e, 600, 2)
	checkOracle(t, e)
	before := e.Store().Len()
	var keys []string
	for i := 0; i < 301; i++ {
		keys = append(keys, strconv.Itoa(i))
	}
	if _, err := e.DeleteRows(context.Background(), "docs", "id", keys); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().Mutation.Compactions; n != 1 {
		t.Fatalf("%d compactions, want 1", n)
	}
	counting.Reset()
	res, err := e.Query(context.Background(), QueryRequest{SQL: compactQuery})
	if err != nil {
		t.Fatal(err)
	}
	if counting.Calls() != 0 || res.Stats.ModelCalls != 0 {
		t.Fatalf("the first query after a compaction made %d model calls", counting.Calls())
	}
	checkOracle(t, e)
	if after := e.Store().Len(); after > before-301 {
		t.Fatalf("store holds %d vectors after compacting away 301 of the %d it held", after, before)
	}
}

// A query pinned to the pre-compaction version keeps streaming after the
// compaction dropped that version's chunks, and its answer is the
// oracle's for the version it pinned.
func TestPinnedQueryAcrossCompaction(t *testing.T) {
	e, _ := openTestEngine(t, "")
	defer e.Close()
	step := docsChurn(t, e, 600, 3)
	checkOracle(t, e)
	docs, _ := e.PinnedTable("docs")
	probe, _ := e.PinnedTable("probe")
	naive, err := plan.NewNaivePlan(plan.Query{
		Left:  docs.Bind(plan.TableRef{Name: "docs", TextColumn: "text"}),
		Right: probe.Bind(plan.TableRef{Name: "probe", TextColumn: "text"}),
		Model: e.Model(),
		Join:  plan.JoinSpec{Kind: plan.ThresholdJoin, Threshold: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := (&plan.Optimizer{Params: cost.DefaultParams(), Store: e.Store(), DisableReorder: true}).Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	ex := &plan.Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, Store: e.Store(), BlockRows: 16}
	ctx := context.Background()
	build, err := ex.EvalBuild(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	defer build.Release()
	s, err := ex.OpenStream(ctx, j, build, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got []core.Match
	blk, err := s.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, blk...)

	var keys []string
	for i := 0; i < 310; i++ {
		keys = append(keys, strconv.Itoa(i))
	}
	if _, err := e.DeleteRows(ctx, "docs", "id", keys); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Mutation.Compactions != 1 {
		t.Fatal("the delete did not compact docs")
	}
	step(e)
	checkOracle(t, e) // the live table serves the compacted lineage meanwhile

	for {
		blk, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if blk == nil {
			break
		}
		got = append(got, blk...)
	}
	ans, err := oracle.Join(e.Model(),
		oracle.Side{Table: docs.Table, Text: "text", Visible: docs.Visible},
		oracle.Side{Table: probe.Table, Text: "text", Visible: probe.Visible},
		oracle.Spec{Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if err := ans.Check(toOracle(got), 1e-5, 1); err != nil {
		t.Fatalf("pinned stream across the compaction: %v", err)
	}
}
