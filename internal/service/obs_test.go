package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ejoin/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestQueryTraceAndSlowLog(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	ctx := obs.WithRequestID(context.Background(), "req-slow-1")
	res, err := e.Query(ctx, QueryRequest{SQL: testQuery, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "req-slow-1" {
		t.Fatalf("request id = %q, want the context's", res.RequestID)
	}

	dump := e.SlowQueries()
	if len(dump.Recent) == 0 {
		t.Fatal("slow log empty after a traced query")
	}
	entry := dump.Recent[0]
	if entry.ID != "req-slow-1" {
		t.Fatalf("slow log id = %q", entry.ID)
	}
	if entry.Strategy != res.Strategy {
		t.Fatalf("slow log strategy = %s, result %s", entry.Strategy, res.Strategy)
	}
	names := make(map[string]bool)
	for _, sp := range entry.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"resolve", "plan", "admit", "execute", "materialize"} {
		if !names[want] {
			t.Errorf("trace missing %q span (got %v)", want, entry.Spans)
		}
	}
}

func TestExplainQuery(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	res, err := e.Query(context.Background(), QueryRequest{SQL: testQuery, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Trace == nil {
		t.Fatal("explain query returned no plan/trace")
	}
	if !strings.Contains(res.PlanText, "est=") || !strings.Contains(res.PlanText, "obs=") {
		t.Fatalf("plan text lacks est/obs: %s", res.PlanText)
	}
	if res.Plan.ObsRows != int64(len(res.Matches)) {
		t.Fatalf("root obs rows %d != matches %d", res.Plan.ObsRows, len(res.Matches))
	}
}

func TestDisableTracing(t *testing.T) {
	e, _ := newTestEngine(t, Config{DisableTracing: true})
	res, err := e.Query(context.Background(), QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "" || res.Trace != nil || res.Plan != nil {
		t.Fatal("disabled tracing still produced trace output")
	}
	if n, _, _ := e.front.obs.slow.Counts(); n != 0 {
		t.Fatalf("slow log recorded %d entries with tracing off", n)
	}
	// An explicit explain forces a trace regardless.
	res, err = e.Query(context.Background(), QueryRequest{SQL: testQuery, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.PlanText == "" {
		t.Fatal("explain did not override disabled tracing")
	}
	// Histograms observe either way.
	if e.front.obs.latency.Count() != 2 {
		t.Fatalf("latency samples = %d, want 2", e.front.obs.latency.Count())
	}
}

func TestMutationTraces(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	if _, err := e.UpsertCSV(context.Background(), "right", "text", strings.NewReader("text\nbrand-new-row\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteRows(context.Background(), "right", "text", []string{"brand-new-row"}); err != nil {
		t.Fatal(err)
	}
	dump := e.SlowQueries()
	var sawUpsert, sawDelete bool
	for _, entry := range dump.Recent {
		switch entry.Strategy {
		case "upsert":
			sawUpsert = true
			var apply bool
			for _, sp := range entry.Spans {
				apply = apply || sp.Name == "apply"
			}
			if !apply {
				t.Errorf("upsert trace spans = %v, want apply", entry.Spans)
			}
		case "delete":
			sawDelete = true
		}
	}
	if !sawUpsert || !sawDelete {
		t.Fatalf("slow log missing mutation traces (upsert=%v delete=%v)", sawUpsert, sawDelete)
	}
}

func TestMetricsExpositionValid(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := e.Query(context.Background(), QueryRequest{SQL: testQuery}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.UpsertCSV(context.Background(), "right", "text", strings.NewReader("text\nmetrics-row\n")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"ejoin_queries_total 3",
		"ejoin_query_duration_seconds_bucket",
		`ejoin_query_strategy_duration_seconds_bucket{strategy="`,
		`ejoin_joins_by_strategy_total{strategy="`,
		"ejoin_upsert_batches_total 1",
		"ejoin_table_compactions_total 0",
		"ejoin_store_entries",
		"ejoin_exec_batches_total",
		"ejoin_exec_rows_early_out_total",
		`ejoin_exec_operator_duration_seconds_bucket{operator="`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Two scrapes render identically apart from monotonic values: same
	// family order, same label order.
	var buf2 bytes.Buffer
	if err := e.WriteMetrics(&buf2); err != nil {
		t.Fatal(err)
	}
	if got, want := familyOrder(buf2.String()), familyOrder(buf.String()); got != want {
		t.Errorf("family order changed between scrapes:\n%s\nvs\n%s", got, want)
	}
}

// familyOrder extracts the sequence of TYPE headers from an exposition.
func familyOrder(text string) string {
	var fams []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, line)
		}
	}
	return strings.Join(fams, "\n")
}

// TestStatsSchemaGolden pins the /stats JSON schema: the set of key paths
// after a served query and a mutation must match the golden file exactly,
// so accidental field renames/removals (or nondeterministic empty-map
// emission) fail loudly. Run with -update to regenerate.
func TestStatsSchemaGolden(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	if _, err := e.Query(context.Background(), QueryRequest{SQL: testQuery}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpsertCSV(context.Background(), "right", "text", strings.NewReader("text\nschema-row\n")); err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(e.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// Maps keyed by runtime values (strategy names, model fingerprints,
	// table names) are schema leaves: their presence is pinned, their keys
	// are data.
	dynamic := map[string]bool{
		"strategies":           true,
		"store_models":         true,
		"mutation.generations": true,
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok || dynamic[prefix] {
			paths = append(paths, prefix)
			return
		}
		for k, sub := range obj {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			walk(p, sub)
		}
	}
	walk("", m)
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"

	golden := filepath.Join("testdata", "stats_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("stats schema drifted from %s (run with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestStatsOmitsEmptyMaps pins satellite behavior: a fresh engine's stats
// JSON has no empty "{}" map fields.
func TestStatsOmitsEmptyMaps(t *testing.T) {
	e, err := NewEngine(Config{Dim: 32})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(e.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"strategies", "store_models", "generations"} {
		if strings.Contains(string(data), `"`+field+`"`) {
			t.Errorf("fresh stats should omit %q: %s", field, data)
		}
	}
}

// TestObsConcurrency drives queries, mutations, stats snapshots, metric
// scrapes, and slow-log dumps concurrently — the -race acceptance for the
// recording paths (histogram atomics, slow-log ring, counters mutex).
func TestObsConcurrency(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := e.Query(context.Background(), QueryRequest{SQL: testQuery, Explain: i%2 == 0}); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				st := e.Stats()
				if st.Obs.LatencySamples > 0 && st.Queries == 0 {
					errs <- fmt.Errorf("latency samples without queries")
					return
				}
				if err := e.WriteMetrics(io.Discard); err != nil {
					errs <- err
					return
				}
				_ = e.SlowQueries()
			}
		}()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				row := fmt.Sprintf("text\nconc-row-%d-%d\n", w, i)
				if _, err := e.UpsertCSV(context.Background(), "right", "text", strings.NewReader(row)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(&buf); err != nil {
		t.Fatalf("exposition invalid after concurrent load: %v", err)
	}
	if got := e.front.obs.latency.Count(); got != uint64(workers*4) {
		t.Errorf("latency samples = %d, want %d", got, workers*4)
	}
}

// BenchmarkWarmQuery measures the warm-cache serve path with tracing on
// and off — the acceptance bound is <= 2% overhead from tracing.
func BenchmarkWarmQuery(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"traced", false}, {"untraced", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := NewEngine(Config{Dim: 64, DisableTracing: mode.disable, SlowQueryThreshold: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			seedBenchTables(b, e)
			if _, err := e.Query(context.Background(), QueryRequest{SQL: testQuery}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(context.Background(), QueryRequest{SQL: testQuery}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func seedBenchTables(b *testing.B, e *Engine) {
	b.Helper()
	for i, name := range []string{"left", "right"} {
		vals := make([]string, 200)
		for j := range vals {
			vals[j] = fmt.Sprintf("bench row %d %d lorem ipsum", i, j)
		}
		tbl, err := stringTable(vals)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.RegisterTable(name, tbl); err != nil {
			b.Fatal(err)
		}
	}
}
