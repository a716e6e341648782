package shard

// Twin-engine differential harness: every query shape runs through an
// unsharded service.Engine and through Routers at several shard counts,
// under hash placement and booted from a retired centroid placement's
// directory (legacy_test.go), and the sharded results must be byte-identical
// — same match ids (global ids equal unsharded row ids by construction),
// same similarities, same order, same LIMIT prefix. This is the router's
// correctness contract from the package comment, asserted end to end.

import (
	"context"
	"encoding/csv"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/workload"
)

const (
	diffProbeRows = 300
	diffStride    = 7
)

var (
	diffSchemaL = relational.Schema{{Name: "word", Type: relational.String}, {Name: "n", Type: relational.Int64}}
	diffSchemaR = relational.Schema{{Name: "term", Type: relational.String}, {Name: "n", Type: relational.Int64}}
)

// diffWords is the probe side's words, row by row.
func diffWords() []string { return workload.Strings(11, diffProbeRows, nil) }

// diffBatch is a batch of (word, n) rows under diffSchemaL.
func diffBatch(t *testing.T, pairs [][2]string) *relational.Table {
	t.Helper()
	var ws relational.StringColumn
	var ns relational.Int64Column
	for _, p := range pairs {
		n, _ := strconv.Atoi(p[1])
		ws = append(ws, p[0])
		ns = append(ns, int64(n))
	}
	tbl, err := relational.NewTable(diffSchemaL, []relational.Column{ws, ns})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// diffCSV renders the stream-test corpus as CSV: a 300-row probe side and
// a strided build subset, so every shape has guaranteed matches
// (identical strings embed identically: similarity 1).
func diffCSV(t *testing.T) (left, right string) {
	t.Helper()
	words := diffWords()
	var lb, rb strings.Builder
	lw, rw := csv.NewWriter(&lb), csv.NewWriter(&rb)
	lw.Write([]string{"word", "n"})
	rw.Write([]string{"term", "n"})
	for i, w := range words {
		lw.Write([]string{w, strconv.Itoa(i)})
		if i%diffStride == 0 {
			rw.Write([]string{w, strconv.Itoa(i)})
		}
	}
	lw.Flush()
	rw.Flush()
	if err := lw.Error(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Error(); err != nil {
		t.Fatal(err)
	}
	return lb.String(), rb.String()
}

// registrar is the one step a corpus loader drives.
type registrar interface {
	RegisterCSV(name string, schema relational.Schema, r io.Reader, replace bool) (int, error)
}

// backend is the surface the harness drives identically on an Engine and
// a Router.
type backend interface {
	registrar
	Query(ctx context.Context, req service.QueryRequest) (*service.QueryResult, error)
	UpsertRows(ctx context.Context, name, keyCol string, batch *relational.Table) (service.MutationResult, error)
	DeleteRows(ctx context.Context, name, keyCol string, keys []string) (service.MutationResult, error)
	Tables() []service.TableInfo
}

func loadCorpus(t *testing.T, b registrar) {
	t.Helper()
	l, r := diffCSV(t)
	if _, err := b.RegisterCSV("l", diffSchemaL, strings.NewReader(l), false); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCSV("r", diffSchemaR, strings.NewReader(r), false); err != nil {
		t.Fatal(err)
	}
}

// diffConfig is the shared engine template: small blocks so every shape
// crosses many block boundaries, two threads to shake out ordering bugs.
func diffConfig(t *testing.T) service.Config {
	t.Helper()
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	return service.Config{Model: m, ExecBlockRows: 16, Threads: 2}
}

// newUnsharded builds the reference engine over the corpus.
func newUnsharded(t *testing.T, cfg service.Config, load func(*testing.T, registrar)) *service.Engine {
	t.Helper()
	e, err := service.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	load(t, e)
	return e
}

// newRouter builds a sharded router over the same corpus. Each router
// gets its own hash-embedder instance: the embedder is deterministic, so
// vectors — and therefore similarities — are bit-identical across
// backends without sharing state. part "centroid" boots the router from a
// directory the retired centroid placement laid out (openLegacy).
func newRouter(t *testing.T, cfg service.Config, shards int, part string, load func(*testing.T, registrar)) *Router {
	t.Helper()
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = m
	if part == "centroid" {
		return openLegacy(t, cfg, shards, load)
	}
	r, err := Open(Config{Shards: shards, Partitioner: part, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	load(t, r)
	return r
}

// grid is the differential shard-count x placement matrix: hash, and the
// retired centroid placement's rows booted from its directory.
type gridPoint struct {
	shards int
	part   string
}

func fullGrid() []gridPoint {
	return []gridPoint{
		{1, "hash"}, {2, "hash"}, {4, "hash"},
		{1, "centroid"}, {2, "centroid"}, {4, "centroid"},
	}
}

// acceptance grid: the widest fan-out under both placements.
func wideGrid() []gridPoint {
	return []gridPoint{{4, "hash"}, {4, "centroid"}}
}

func (g gridPoint) name() string { return g.part + "-" + strconv.Itoa(g.shards) }

// assertSameMatches is the byte-identity assertion: ids, similarities,
// and order all equal.
func assertSameMatches(t *testing.T, label string, want, got *service.QueryResult) {
	t.Helper()
	if len(want.Matches) != len(got.Matches) {
		t.Fatalf("%s: %d matches unsharded, %d sharded", label, len(want.Matches), len(got.Matches))
	}
	for i := range want.Matches {
		if want.Matches[i] != got.Matches[i] {
			t.Fatalf("%s: match %d: unsharded %+v, sharded %+v", label, i, want.Matches[i], got.Matches[i])
		}
	}
}

// diffRequests are the core query shapes, mirroring the executor-level
// differential suite at the service boundary: threshold and top-k, pure
// and residual, filtered, limited, SQL and structured.
func diffRequests() []service.QueryRequest {
	thr := 0.85
	resid := 0.9
	return []service.QueryRequest{
		{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"},
		{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85", Limit: 7},
		{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85 WHERE l.n <= 200 AND r.n <= 250"},
		{SQL: "SELECT * FROM l JOIN r ON TOPK(l.word, r.term, 3)"},
		{SQL: "SELECT * FROM l JOIN r ON TOPK(l.word, r.term, 3)", Limit: 8},
		{Join: &service.JoinRequest{
			LeftTable: "l", LeftColumn: "word", RightTable: "r", RightColumn: "term",
			Kind: "topk", K: 3, Threshold: &resid,
		}},
		{Join: &service.JoinRequest{
			LeftTable: "l", LeftColumn: "word", RightTable: "r", RightColumn: "term",
			Kind: "threshold", Threshold: &thr,
		}, Limit: 5},
	}
}

// runDifferential runs every request through the reference engine and
// each grid router and asserts byte-identical responses. checkStrategy
// additionally requires the reported strategy label to agree.
func runDifferential(t *testing.T, cfg service.Config, grid []gridPoint, reqs []service.QueryRequest, checkStrategy bool) {
	t.Helper()
	ref := newUnsharded(t, cfg, loadCorpus)
	ctx := context.Background()
	want := make([]*service.QueryResult, len(reqs))
	for i, req := range reqs {
		res, err := ref.Query(ctx, req)
		if err != nil {
			t.Fatalf("unsharded request %d: %v", i, err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("unsharded request %d produced no matches; differential is vacuous", i)
		}
		want[i] = res
	}
	for _, g := range grid {
		g := g
		t.Run(g.name(), func(t *testing.T) {
			rt := newRouter(t, cfg, g.shards, g.part, loadCorpus)
			for i, req := range reqs {
				got, err := rt.Query(ctx, req)
				if err != nil {
					t.Fatalf("sharded request %d: %v", i, err)
				}
				label := "request " + strconv.Itoa(i)
				assertSameMatches(t, label, want[i], got)
				if checkStrategy && want[i].Strategy != got.Strategy {
					t.Errorf("%s: strategy %q unsharded, %q sharded", label, want[i].Strategy, got.Strategy)
				}
				if req.Limit > 0 && len(got.Matches) > req.Limit {
					t.Errorf("%s: %d matches over limit %d", label, len(got.Matches), req.Limit)
				}
				// Repeated, the query is served warm: the same matches at
				// zero model calls on every shard.
				again, err := rt.Query(ctx, req)
				if err != nil {
					t.Fatalf("sharded request %d, repeated: %v", i, err)
				}
				assertSameMatches(t, label+" repeated", want[i], again)
				if again.Stats.ModelCalls != 0 {
					t.Errorf("%s: repeated query made %d model calls, want 0", label, again.Stats.ModelCalls)
				}
			}
			if skew := rt.Stats().PartitionSkew; skew < 1 {
				t.Errorf("partition skew %v, want >= 1", skew)
			}
			// Stats-visible row counts: the aggregated table listing must
			// match the unsharded engine's exactly.
			if wt, gt := ref.Tables(), rt.Tables(); !reflect.DeepEqual(wt, gt) {
				t.Errorf("tables: unsharded %+v, sharded %+v", wt, gt)
			}
		})
	}
}

func TestShardDifferentialAuto(t *testing.T) {
	runDifferential(t, diffConfig(t), fullGrid(), diffRequests(), false)
}

// TestShardDifferentialTensor requires the strategy labels to agree too:
// both backends run the tensor scan, the one join operator.
func TestShardDifferentialTensor(t *testing.T) {
	runDifferential(t, diffConfig(t), wideGrid(), diffRequests(), true)
}

// TestShardEstRowsMatchEngine holds the plan span's est_rows to a freshly
// opened unsharded engine's: the router estimates the output once from
// the query's left side, not once per shard, in either orientation.
func TestShardEstRowsMatchEngine(t *testing.T) {
	cfg := diffConfig(t)
	estRows := func(b backend, sql string) int64 {
		t.Helper()
		res, err := b.Query(context.Background(), service.QueryRequest{SQL: sql, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range res.Trace.Spans {
			if sp.Name == "plan" {
				return sp.Attrs["est_rows"]
			}
		}
		t.Fatalf("%s: no plan span", sql)
		return 0
	}
	sqls := []string{
		"SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85",
		"SELECT * FROM r JOIN l ON SIM(r.term, l.word) >= 0.85",
		"SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85 WHERE l.n <= 200",
		"SELECT * FROM l JOIN r ON TOPK(l.word, r.term, 3)",
	}
	// One engine per query: a traced query feeds the engine's cardinality
	// feedback, which the router does not keep, and corrects later plans.
	want := make([]int64, len(sqls))
	for i, sql := range sqls {
		want[i] = estRows(newUnsharded(t, cfg, loadCorpus), sql)
	}
	for _, g := range wideGrid() {
		rt := newRouter(t, cfg, g.shards, g.part, loadCorpus)
		for i, sql := range sqls {
			if got := estRows(rt, sql); got != want[i] {
				t.Errorf("%s: %s: est_rows %d sharded, %d unsharded", g.name(), sql, got, want[i])
			}
		}
	}
}

// TestShardDifferentialMutations drives the same upsert/delete sequence
// through both backends: mutation accounting and post-mutation query
// results must stay byte-identical (global ids keep equalling unsharded
// row ids because both sides append batch rows in batch order and only
// ever tombstone).
func TestShardDifferentialMutations(t *testing.T) {
	cfg := diffConfig(t)
	words := diffWords()
	// Replacements of existing keys plus brand-new keys, including an
	// intra-batch duplicate (last write wins on both backends).
	up := diffBatch(t, [][2]string{
		{words[0], "1000"}, {words[7], "1001"}, {"zebra-fresh", "1002"},
		{"quark-fresh", "1003"}, {"zebra-fresh", "1004"},
	})
	dels := []string{words[14], "zebra-fresh", "never-existed"}
	reqs := []service.QueryRequest{
		{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"},
		{SQL: "SELECT * FROM l JOIN r ON TOPK(l.word, r.term, 3)"},
	}

	ctx := context.Background()
	ref := newUnsharded(t, cfg, loadCorpus)
	wantUp, err := ref.UpsertRows(ctx, "l", "word", up)
	if err != nil {
		t.Fatal(err)
	}
	wantDel, err := ref.DeleteRows(ctx, "l", "word", dels)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*service.QueryResult, len(reqs))
	for i, req := range reqs {
		if want[i], err = ref.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
		if len(want[i].Matches) == 0 {
			t.Fatalf("request %d produced no matches post-mutation", i)
		}
	}

	for _, g := range fullGrid() {
		g := g
		t.Run(g.name(), func(t *testing.T) {
			rt := newRouter(t, cfg, g.shards, g.part, loadCorpus)
			gotUp, err := rt.UpsertRows(ctx, "l", "word", up)
			if err != nil {
				t.Fatal(err)
			}
			if gotUp.Upserted != wantUp.Upserted || gotUp.Replaced != wantUp.Replaced || gotUp.LiveRows != wantUp.LiveRows {
				t.Errorf("upsert: unsharded %+v, sharded %+v", wantUp, gotUp)
			}
			gotDel, err := rt.DeleteRows(ctx, "l", "word", dels)
			if err != nil {
				t.Fatal(err)
			}
			if gotDel.Deleted != wantDel.Deleted || gotDel.Missing != wantDel.Missing || gotDel.LiveRows != wantDel.LiveRows {
				t.Errorf("delete: unsharded %+v, sharded %+v", wantDel, gotDel)
			}
			for i, req := range reqs {
				got, err := rt.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatches(t, "post-mutation request "+strconv.Itoa(i), want[i], got)
			}
		})
	}
}

// TestShardDifferentialMaterialize compares the fully materialized join
// output: the router's cross-shard gather must reassemble the same rows
// in the same order with the same l_/r_/similarity schema.
func TestShardDifferentialMaterialize(t *testing.T) {
	cfg := diffConfig(t)
	ref := newUnsharded(t, cfg, loadCorpus)
	ctx := context.Background()
	req := service.QueryRequest{
		SQL:         "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85",
		Materialize: true,
	}
	want, err := ref.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if want.Table == nil || want.Table.NumRows() == 0 {
		t.Fatal("unsharded materialization is empty")
	}
	for _, g := range wideGrid() {
		g := g
		t.Run(g.name(), func(t *testing.T) {
			rt := newRouter(t, cfg, g.shards, g.part, loadCorpus)
			got, err := rt.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Table == nil {
				t.Fatal("sharded query returned no table")
			}
			if !reflect.DeepEqual(want.Table.Schema(), got.Table.Schema()) {
				t.Fatalf("schema: unsharded %+v, sharded %+v", want.Table.Schema(), got.Table.Schema())
			}
			if want.Table.NumRows() != got.Table.NumRows() {
				t.Fatalf("rows: unsharded %d, sharded %d", want.Table.NumRows(), got.Table.NumRows())
			}
			for i := range want.Table.Schema() {
				if !reflect.DeepEqual(want.Table.ColumnAt(i), got.Table.ColumnAt(i)) {
					t.Errorf("column %d diverged", i)
				}
			}
		})
	}
}

// TestShardLimitEarlyOut proves the fan-out's LIMIT short-circuit is
// real for both join kinds: a truncated scatter-gather embeds strictly
// fewer probe rows than a full one, because streams stop at the limit and
// the fan-out is cancelled once the merge cuts.
func TestShardLimitEarlyOut(t *testing.T) {
	newCold := func() (*Router, *model.CountingModel) {
		cfg := diffConfig(t)
		b, err := model.NewHashEmbedder(32)
		if err != nil {
			t.Fatal(err)
		}
		c := model.NewCountingModel(b)
		cfg.Model = c
		r, err := Open(Config{Shards: 4, Partitioner: "hash", Engine: cfg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		loadCorpus(t, r)
		return r, c
	}
	// A dense threshold, so every stream's very first probe block produces
	// matches: the k-way merge needs each cursor's head before emitting
	// anything, and under a sparse threshold filling those heads already
	// streams most of the probe side regardless of the limit. Top-k rows
	// always match.
	for _, sql := range []string{
		"SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.2",
		"SELECT * FROM l JOIN r ON TOPK(l.word, r.term, 3)",
	} {
		ctx := context.Background()
		rFull, cFull := newCold()
		resFull, err := rFull.Query(ctx, service.QueryRequest{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		fullCalls := cFull.Calls()

		rLim, cLim := newCold()
		resLim, err := rLim.Query(ctx, service.QueryRequest{SQL: sql, Limit: 2})
		if err != nil {
			t.Fatal(err)
		}
		limCalls := cLim.Calls()

		if len(resLim.Matches) != 2 {
			t.Fatalf("%s: limited query returned %d matches, want 2", sql, len(resLim.Matches))
		}
		for i := range resLim.Matches {
			if resLim.Matches[i] != resFull.Matches[i] {
				t.Fatalf("%s: limit prefix diverged at %d: %+v vs %+v", sql, i, resLim.Matches[i], resFull.Matches[i])
			}
		}
		if limCalls >= fullCalls {
			t.Errorf("%s: limit did not short-circuit: %d model calls limited, %d full", sql, limCalls, fullCalls)
		}
		if st := rLim.Stats(); st.TruncatedQueries == 0 {
			t.Errorf("%s: truncated fan-out not counted", sql)
		}
	}
}

// cancelAfterModel cancels a context after n embeddings, interrupting
// the fan-out mid-flight rather than before it starts.
type cancelAfterModel struct {
	model.Model
	n      int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (m *cancelAfterModel) Embed(s string) ([]float32, error) {
	if m.calls.Add(1) == m.n {
		m.cancel()
	}
	return m.Model.Embed(s)
}

// TestShardCancelMidFanout cancels the request context while shard
// streams are mid-flight: the fan-out must fail with the cancellation
// (not hang, not return partial results), and the router must keep
// serving afterwards.
func TestShardCancelMidFanout(t *testing.T) {
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cm := &cancelAfterModel{Model: base, n: 100, cancel: cancel}
	cfg := diffConfig(t)
	cfg.Model = cm
	cfg.Threads = 1
	r, err := Open(Config{Shards: 4, Partitioner: "hash", Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	loadCorpus(t, r)

	_, err = r.Query(ctx, service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"})
	if err == nil {
		t.Fatal("cancelled fan-out must fail, not return partial results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// The router survives the aborted fan-out: a fresh context succeeds.
	res, err := r.Query(context.Background(), service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("post-cancel query returned no matches")
	}
}
