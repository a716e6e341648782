package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/workload"
)

const testQuery = "SELECT * FROM left JOIN right ON SIM(left.text, right.text) >= 0.8"

// newTestEngine builds an engine over two overlapping string tables with
// a counting model, so tests can assert on actual model work.
func newTestEngine(t *testing.T, cfg Config) (*Engine, *model.CountingModel) {
	t.Helper()
	base, err := model.NewHashEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	counting := model.NewCountingModel(base)
	if cfg.Model == nil {
		cfg.Model = counting
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"left", "right"} {
		tbl, err := stringTable(workload.Strings(int64(i+1), 120, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable(name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	return e, counting
}

func ptr(v float64) *float64 { return &v }

// compass embeds three words on exact unit directions of the plane.
type compass struct{}

func (compass) Embed(s string) ([]float32, error) {
	switch s {
	case "east":
		return []float32{1, 0}, nil
	case "west":
		return []float32{-1, 0}, nil
	case "north":
		return []float32{0, 1}, nil
	}
	return nil, fmt.Errorf("compass: no direction %q", s)
}
func (compass) Dim() int     { return 2 }
func (compass) Name() string { return "compass" }

func stringTable(vals []string) (*relational.Table, error) {
	schema := relational.Schema{{Name: "text", Type: relational.String}}
	return relational.NewTable(schema, []relational.Column{relational.StringColumn(vals)})
}

// TestEngineServesConcurrentQueries is the acceptance path: 8 concurrent
// clients over one shared engine (run under -race in CI), then a warm
// repeat of the same query text with zero model calls.
func TestEngineServesConcurrentQueries(t *testing.T) {
	e, counting := newTestEngine(t, Config{})
	const clients = 8
	const perClient = 4

	run := func() error {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					res, err := e.Query(context.Background(), QueryRequest{SQL: testQuery})
					if err != nil {
						errs <- err
						return
					}
					if res.Strategy == "" {
						errs <- fmt.Errorf("empty strategy")
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		return nil
	}

	if err := run(); err != nil {
		t.Fatal(err)
	}
	coldCalls := counting.Calls()
	if coldCalls == 0 {
		t.Fatal("cold round made no model calls")
	}

	// Warm round: same query text, fully cached corpus — zero model calls.
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if warm := counting.Calls() - coldCalls; warm != 0 {
		t.Errorf("warm round made %d model calls, want 0", warm)
	}

	st := e.Stats()
	if st.Queries != 2*clients*perClient {
		t.Errorf("queries = %d, want %d", st.Queries, 2*clients*perClient)
	}
	if st.PlanCacheHits == 0 {
		t.Error("no plan cache hits across repeated identical queries")
	}
	if st.Store.Hits == 0 {
		t.Error("no store hits across repeated queries")
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Errors)
	}
}

func TestEngineStructuredJoin(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	ctx := context.Background()

	res, err := e.Query(ctx, QueryRequest{Join: &JoinRequest{
		LeftTable: "left", LeftColumn: "text",
		RightTable: "right", RightColumn: "text",
		Kind: "topk", K: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Error("topk join returned no matches")
	}

	// An explicit threshold of 0 on a topk join must filter out
	// negative-similarity matches (0 is a real cutoff, not "absent").
	// A model of three fixed directions makes the similarities exact:
	// {0, -1} for the pair.
	ce, err := NewEngine(Config{Model: compass{}})
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	for name, words := range map[string][]string{"vl": {"east"}, "vr": {"west", "north"}} {
		tbl, err := stringTable(words)
		if err != nil {
			t.Fatal(err)
		}
		if err := ce.RegisterTable(name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	vq := JoinRequest{LeftTable: "vl", LeftColumn: "text", RightTable: "vr", RightColumn: "text", Kind: "topk", K: 2}
	unfiltered, err := ce.Query(ctx, QueryRequest{Join: &vq})
	if err != nil {
		t.Fatal(err)
	}
	if len(unfiltered.Matches) != 2 {
		t.Fatalf("unfiltered top-2 = %d matches, want 2", len(unfiltered.Matches))
	}
	vq.Threshold = ptr(0.0)
	zero, err := ce.Query(ctx, QueryRequest{Join: &vq})
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Matches) != 1 || zero.Matches[0].Sim < 0 {
		t.Errorf("topk with threshold 0: matches = %+v, want exactly the sim-0 pair", zero.Matches)
	}

	res, err = e.Query(ctx, QueryRequest{
		Join: &JoinRequest{
			LeftTable: "left", LeftColumn: "text",
			RightTable: "right", RightColumn: "text",
			Threshold: ptr(0.8),
		},
		Limit:       1,
		Materialize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) > 1 {
		t.Errorf("limit 1 returned %d matches", len(res.Matches))
	}
	if res.Table == nil || res.Table.NumRows() != len(res.Matches) {
		t.Errorf("materialized table mismatch: %+v", res.Table)
	}
	if res.Table.Schema().IndexOf("similarity") < 0 {
		t.Error("materialized table lacks similarity column")
	}

	for name, req := range map[string]QueryRequest{
		"empty":         {},
		"both":          {SQL: testQuery, Join: &JoinRequest{}},
		"unknown table": {Join: &JoinRequest{LeftTable: "nope", LeftColumn: "text", RightTable: "right", RightColumn: "text"}},
		"unknown col":   {Join: &JoinRequest{LeftTable: "left", LeftColumn: "nope", RightTable: "right", RightColumn: "text"}},
		"bad kind":      {Join: &JoinRequest{LeftTable: "left", LeftColumn: "text", RightTable: "right", RightColumn: "text", Kind: "hash"}},
		"topk no k":     {Join: &JoinRequest{LeftTable: "left", LeftColumn: "text", RightTable: "right", RightColumn: "text", Kind: "topk"}},
	} {
		if _, err := e.Query(ctx, req); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestJoinRequestBindingErrors: every binding error of a structured
// request says "service: " once and is a bad request; the same mistakes
// in SQL say "sqlish: ".
func TestJoinRequestBindingErrors(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	mixed, err := relational.NewTable(
		relational.Schema{{Name: "text", Type: relational.String}, {Name: "n", Type: relational.Int64}},
		[]relational.Column{relational.StringColumn{"a", "b"}, relational.Int64Column{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable("mixed", mixed); err != nil {
		t.Fatal(err)
	}
	join := func(lt, lc string, kind string, k int) QueryRequest {
		return QueryRequest{Join: &JoinRequest{LeftTable: lt, LeftColumn: lc, RightTable: "right", RightColumn: "text", Kind: kind, K: k}}
	}
	for _, c := range []struct {
		name string
		req  QueryRequest
		want string
	}{
		{"unknown table", join("nope", "text", "", 0), `service: unknown table "nope"`},
		{"unknown column", join("left", "nope", "", 0), `service: table "left" has no column "nope"`},
		{"column not TEXT", join("mixed", "n", "", 0), "service: join column mixed.n must be TEXT, is BIGINT"},
		{"bad kind", join("left", "text", "hash", 0), `service: unknown join kind "hash"`},
		{"topk no k", join("left", "text", "topk", 0), "service: topk join requires k > 0"},
		{"SQL, unknown column", QueryRequest{SQL: "SELECT * FROM left JOIN right ON SIM(left.nope, right.text) >= 0.5"}, `sqlish: table "left" has no column "nope"`},
		{"SQL, column not TEXT", QueryRequest{SQL: "SELECT * FROM mixed JOIN right ON SIM(mixed.n, right.text) >= 0.5"}, "sqlish: join column mixed.n must be TEXT, is BIGINT"},
	} {
		_, err := e.Query(context.Background(), c.req)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) || !IsBadRequest(err) {
			t.Errorf("%s: %v (bad request %v), want a bad request starting %q", c.name, err, IsBadRequest(err), c.want)
		}
	}
}

func TestEngineDeadline(t *testing.T) {
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	slow := slowModel{base, 2 * time.Millisecond}
	e, _ := newTestEngine(t, Config{Model: slow, DefaultTimeout: 5 * time.Millisecond, Threads: 1})

	_, err = e.Query(context.Background(), QueryRequest{SQL: testQuery})
	if err == nil {
		t.Fatal("query met a 5ms deadline despite 2ms-per-call model over 240 rows")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if st := e.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}

	// A per-request timeout overrides the default.
	if _, err := e.Query(context.Background(), QueryRequest{SQL: testQuery, Timeout: 30 * time.Second}); err != nil {
		t.Errorf("generous per-request timeout still failed: %v", err)
	}
}

// TestEngineMaxTimeoutCapsRequests: the operator's MaxTimeout must bound
// client-requested deadlines, or one request could camp on a slot.
func TestEngineMaxTimeoutCapsRequests(t *testing.T) {
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	slow := slowModel{base, 2 * time.Millisecond}
	e, _ := newTestEngine(t, Config{Model: slow, MaxTimeout: 5 * time.Millisecond, Threads: 1})

	_, err = e.Query(context.Background(), QueryRequest{SQL: testQuery, Timeout: time.Hour})
	if err == nil {
		t.Fatal("1h client timeout was honored past a 5ms MaxTimeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestEngineCancellation cancels an in-flight request and requires the
// engine to return promptly instead of finishing the query.
func TestEngineCancellation(t *testing.T) {
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	slow := slowModel{base, 2 * time.Millisecond}
	e, _ := newTestEngine(t, Config{Model: slow, Threads: 1})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx, QueryRequest{SQL: testQuery})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled query reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query did not return within 5s")
	}
}

// slowModel sleeps before every Embed call: an expensive model on the
// critical path.
type slowModel struct {
	model.Model
	delay time.Duration
}

func (m slowModel) Embed(s string) ([]float32, error) {
	time.Sleep(m.delay)
	return m.Model.Embed(s)
}

// gaugeModel tracks the maximum number of concurrent Embed calls.
type gaugeModel struct {
	model.Model
	cur, max atomic.Int64
}

func (g *gaugeModel) Embed(s string) ([]float32, error) {
	c := g.cur.Add(1)
	for {
		m := g.max.Load()
		if c <= m || g.max.CompareAndSwap(m, c) {
			break
		}
	}
	defer g.cur.Add(-1)
	time.Sleep(200 * time.Microsecond)
	return g.Model.Embed(s)
}

// TestEngineAdmissionSerializes: MaxConcurrent=1 must serialize query
// execution even under parallel clients, and count the waits.
func TestEngineAdmissionSerializes(t *testing.T) {
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	gauge := &gaugeModel{Model: base}
	e, err := NewEngine(Config{Model: gauge, MaxConcurrent: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct corpora per client so the store cannot collapse the work.
	const clients = 4
	for c := 0; c < clients; c++ {
		lt, err := stringTable(workload.Strings(int64(100+c), 40, nil))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := stringTable(workload.Strings(int64(200+c), 40, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable(fmt.Sprintf("l%d", c), lt); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable(fmt.Sprintf("r%d", c), rt); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := fmt.Sprintf("SELECT * FROM l%d JOIN r%d ON SIM(l%d.text, r%d.text) >= 0.9", c, c, c, c)
			if _, err := e.Query(context.Background(), QueryRequest{SQL: q}); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := gauge.max.Load(); got > 1 {
		t.Errorf("observed %d concurrent model calls with MaxConcurrent=1, want <=1", got)
	}
	if st := e.Stats(); st.AdmissionWaits == 0 {
		t.Error("no admission waits recorded for 4 clients on 1 slot")
	}
}

// TestEnginePlanCacheInvalidation: catalog changes must invalidate cached
// bindings so queries never run against replaced or dropped tables.
func TestEnginePlanCacheInvalidation(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	ctx := context.Background()

	first, err := e.Query(ctx, QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatal(err)
	}

	// Replace the right table with a copy of the left: every row now has
	// an exact twin, so the match count must change.
	lt, _ := e.catalog.Get("left")
	if err := e.RegisterTable("right", lt); err != nil {
		t.Fatal(err)
	}
	second, err := e.Query(ctx, QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Matches) == len(first.Matches) {
		t.Error("match count unchanged after table replacement: stale plan served")
	}
	if second.PlanCacheHit {
		t.Error("query after catalog change reported a plan cache hit")
	}
	if st := e.Stats(); st.PlanCacheInvalidations == 0 {
		t.Error("no plan cache invalidation recorded")
	}

	if !e.DropTable("right") {
		t.Fatal("drop failed")
	}
	if _, err := e.Query(ctx, QueryRequest{SQL: testQuery}); err == nil {
		t.Fatal("query against dropped table succeeded")
	} else if !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("error %v should name the unknown table", err)
	}
}

func TestEngineTablesAndCSV(t *testing.T) {
	e, err := NewEngine(Config{Dim: 32})
	if err != nil {
		t.Fatal(err)
	}
	schema := relational.Schema{
		{Name: "sku", Type: relational.Int64},
		{Name: "name", Type: relational.String},
	}
	rows, err := e.RegisterCSV("catalog", schema, strings.NewReader("sku,name\n1,barbecue\n2,database\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Errorf("rows = %d, want 2", rows)
	}
	tables := e.Tables()
	if len(tables) != 1 || tables[0].Name != "catalog" || tables[0].Rows != 2 || tables[0].Cols != 2 {
		t.Errorf("tables = %+v", tables)
	}
	// Create-vs-replace is explicit: a duplicate create is rejected with
	// ErrTableExists before the CSV is read; replace overwrites.
	if _, err := e.RegisterCSV("catalog", schema, strings.NewReader("sku,name\n9,espresso\n"), false); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create error = %v, want ErrTableExists", err)
	}
	if got, _ := e.Catalog().Get("catalog"); got == nil || got.NumRows() != 2 {
		t.Error("rejected duplicate create must leave the table untouched")
	}
	rows, err = e.RegisterCSV("catalog", schema, strings.NewReader("sku,name\n9,espresso\n"), true)
	if err != nil || rows != 1 {
		t.Errorf("replace ingest = (%d, %v), want (1, nil)", rows, err)
	}
	if _, err := e.RegisterCSV("bad", schema, strings.NewReader("nope\n"), false); err == nil {
		t.Error("malformed CSV accepted")
	}
	if err := e.RegisterTable("", nil); err == nil {
		t.Error("empty name accepted")
	}
}
