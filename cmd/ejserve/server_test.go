package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ejoin/internal/oracle"
	"ejoin/internal/service"
)

// serverFor wraps an already-open engine the way main's boot goroutine
// does: built unready, then published.
func serverFor(e *service.Engine) *server {
	s := newServer(false)
	s.publish(engineBackend{e})
	return s
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	engine, err := service.NewEngine(service.Config{Dim: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serverFor(engine))
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

func ingestPair(t *testing.T, ts *httptest.Server) {
	t.Helper()
	for name, csv := range map[string]string{
		"catalog": "sku,name\n1,barbecue\n2,database\n3,clothes\n",
		"feed":    "title\nbarbecues\ndatabases\nclothing\ngiraffe\n",
	} {
		schema := "title:text"
		if name == "catalog" {
			schema = "sku:int,name:text"
		}
		body, _ := json.Marshal(map[string]string{"name": name, "schema": schema, "csv": csv})
		status, resp := doJSON(t, http.MethodPost, ts.URL+"/tables", string(body))
		if status != http.StatusCreated {
			t.Fatalf("ingest %s: status %d, body %v", name, status, resp)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	status, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
	if status != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: %d %v", status, body)
	}
}

func TestTableLifecycle(t *testing.T) {
	ts := newTestServer(t)
	ingestPair(t, ts)

	status, body := doJSON(t, http.MethodGet, ts.URL+"/tables", "")
	if status != http.StatusOK {
		t.Fatalf("list: %d %v", status, body)
	}
	tables := body["tables"].([]any)
	if len(tables) != 2 {
		t.Errorf("tables = %v, want 2 entries", tables)
	}

	// CSV body variant.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/tables?name=extra&schema=s:text", strings.NewReader("s\nhello\n"))
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("csv-body ingest: status %d", resp.StatusCode)
	}

	status, _ = doJSON(t, http.MethodDelete, ts.URL+"/tables/extra", "")
	if status != http.StatusOK {
		t.Errorf("drop: status %d", status)
	}
	status, _ = doJSON(t, http.MethodDelete, ts.URL+"/tables/extra", "")
	if status != http.StatusNotFound {
		t.Errorf("double drop: status %d, want 404", status)
	}

	for name, body := range map[string]string{
		"missing name":   `{"schema": "s:text", "csv": "s\nx\n"}`,
		"bad schema":     `{"name": "t", "schema": "s;text", "csv": "s\nx\n"}`,
		"bad type":       `{"name": "t", "schema": "s:blob", "csv": "s\nx\n"}`,
		"malformed csv":  `{"name": "t", "schema": "s:text,k:int", "csv": "s\nonly-one-col\n"}`,
		"malformed json": `{`,
	} {
		status, _ := doJSON(t, http.MethodPost, ts.URL+"/tables", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}

// TestCreateTableRejectsBadColumnNames: a schema whose CSV header matches
// it but names a column twice, or not at all, is the request's fault. A
// table registered from it would bind every reference to the first of two
// same-named columns.
func TestCreateTableRejectsBadColumnNames(t *testing.T) {
	ts := newTestServer(t)
	for name, body := range map[string]string{
		"duplicate name": `{"name": "t", "schema": "k:int,k:text", "csv": "k,k\n1,a\n"}`,
		"empty name":     `{"name": "t", "schema": ":int,b:text", "csv": ",b\n1,a\n"}`,
	} {
		status, resp := doJSON(t, http.MethodPost, ts.URL+"/tables", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", name, status, resp)
		}
	}
	if _, body := doJSON(t, http.MethodGet, ts.URL+"/tables", ""); len(body["tables"].([]any)) != 0 {
		t.Errorf("a rejected schema registered a table: %v", body["tables"])
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	ingestPair(t, ts)

	q := `{"sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35", "include_rows": true}`
	status, body := doJSON(t, http.MethodPost, ts.URL+"/query", q)
	if status != http.StatusOK {
		t.Fatalf("query: %d %v", status, body)
	}
	matches := body["matches"].([]any)
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	rows := body["rows"].([]any)
	if len(rows) != len(matches) {
		t.Errorf("rows %d != matches %d", len(rows), len(matches))
	}
	row := rows[0].(map[string]any)
	if _, ok := row["similarity"]; !ok {
		t.Errorf("row lacks similarity: %v", row)
	}
	if body["strategy"] == "" {
		t.Error("empty strategy")
	}

	// Warm repeat should hit the plan cache.
	status, body = doJSON(t, http.MethodPost, ts.URL+"/query", q)
	if status != http.StatusOK || body["plan_cache_hit"] != true {
		t.Errorf("repeat: %d plan_cache_hit=%v", status, body["plan_cache_hit"])
	}

	// Structured join.
	jq := `{"join": {"left_table": "catalog", "left_column": "name", "right_table": "feed", "right_column": "title", "kind": "topk", "k": 1}}`
	status, body = doJSON(t, http.MethodPost, ts.URL+"/query", jq)
	if status != http.StatusOK {
		t.Fatalf("structured query: %d %v", status, body)
	}
	if len(body["matches"].([]any)) != 3 {
		t.Errorf("top-1 per left row: %d matches, want 3", len(body["matches"].([]any)))
	}

	for name, q := range map[string]string{
		"parse error":   `{"sql": "SELECT FROM"}`,
		"unknown table": `{"sql": "SELECT * FROM nope JOIN feed ON SIM(nope.x, feed.title) >= 0.5"}`,
		"empty":         `{}`,
		"bad json":      `{`,
	} {
		status, _ := doJSON(t, http.MethodPost, ts.URL+"/query", q)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	ingestPair(t, ts)

	// Concurrent clients against one engine; then stats must reflect them.
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := `{"sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35"}`
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(q))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	status, body := doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if q := body["queries"].(float64); q != clients {
		t.Errorf("queries = %v, want %d", q, clients)
	}
	if body["tables"].(float64) != 2 {
		t.Errorf("tables = %v, want 2", body["tables"])
	}
	store := body["store"].(map[string]any)
	if store["entries"].(float64) == 0 {
		t.Errorf("store entries = %v, want > 0", store["entries"])
	}
}

func TestCreateTableConflictAndReplace(t *testing.T) {
	ts := newTestServer(t)
	ingestPair(t, ts)

	// A duplicate create is 409 Conflict, leaving the table untouched.
	body, _ := json.Marshal(map[string]string{
		"name": "catalog", "schema": "sku:int,name:text", "csv": "sku,name\n9,espresso\n"})
	status, resp := doJSON(t, http.MethodPost, ts.URL+"/tables", string(body))
	if status != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, body %v", status, resp)
	}
	status, tables := doJSON(t, http.MethodGet, ts.URL+"/tables", "")
	if status != http.StatusOK {
		t.Fatal("listing tables failed")
	}
	for _, ti := range tables["tables"].([]any) {
		m := ti.(map[string]any)
		if m["name"] == "catalog" && m["rows"].(float64) != 3 {
			t.Errorf("409'd create still replaced the table: %v", m)
		}
	}

	// With replace: true the same request succeeds.
	body, _ = json.Marshal(map[string]any{
		"name": "catalog", "schema": "sku:int,name:text", "csv": "sku,name\n9,espresso\n", "replace": true})
	status, resp = doJSON(t, http.MethodPost, ts.URL+"/tables", string(body))
	if status != http.StatusCreated || resp["rows"].(float64) != 1 {
		t.Fatalf("replace create: status %d, body %v", status, resp)
	}

	// The ?replace=true query form works for text/csv uploads too.
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/tables?name=catalog&schema=sku:int,name:text&replace=true",
		strings.NewReader("sku,name\n5,kettle\n6,mug\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusCreated {
		t.Fatalf("csv replace upload: status %d", httpResp.StatusCode)
	}
}

func TestSnapshotEndpointAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *service.Engine {
		engine, err := service.Open(service.Config{Dim: 32, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return engine
	}

	engine := open()
	ts := httptest.NewServer(serverFor(engine))
	ingestPair(t, ts)
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/query",
		`{"sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35"}`)
	if status != http.StatusOK {
		t.Fatal("query failed")
	}
	status, snap := doJSON(t, http.MethodPost, ts.URL+"/snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("snapshot: status %d, body %v", status, snap)
	}
	if snap["entries"].(float64) == 0 || snap["tables"].(float64) != 2 {
		t.Errorf("snapshot info %v", snap)
	}
	ts.Close()
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot on the same directory: tables are present, the repeated
	// query runs against a warm store with zero model calls.
	engine2 := open()
	defer engine2.Close()
	ts2 := httptest.NewServer(serverFor(engine2))
	defer ts2.Close()
	status, _ = doJSON(t, http.MethodPost, ts2.URL+"/query",
		`{"sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35"}`)
	if status != http.StatusOK {
		t.Fatal("warm query failed")
	}
	status, stats := doJSON(t, http.MethodGet, ts2.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatal("stats failed")
	}
	store := stats["store"].(map[string]any)
	if calls := store["model_calls"].(float64); calls != 0 {
		t.Errorf("warm restart made %v model calls, want 0", calls)
	}
	durable := stats["durable"].(map[string]any)
	if durable["loaded_entries"].(float64) == 0 || durable["loaded_tables"].(float64) != 2 {
		t.Errorf("durable stats after restart: %v", durable)
	}
	if _, ok := stats["store_models"]; !ok {
		t.Error("stats missing per-model entry counts")
	}
}

func TestSnapshotOnMemoryOnlyEngineErrors(t *testing.T) {
	ts := newTestServer(t)
	status, resp := doJSON(t, http.MethodPost, ts.URL+"/snapshot", "")
	if status != http.StatusConflict {
		t.Errorf("memory-only snapshot: status %d, body %v", status, resp)
	}
}

// TestPrecisionEndpoint: the per-table precision knob is gone, so
// PUT /tables/{name}/precision is not served (404, or 405 if a pattern
// for the path exists under another method), and the table is untouched.
func TestPrecisionEndpoint(t *testing.T) {
	ts := newTestServer(t)
	ingestPair(t, ts)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/tables/catalog/precision", strings.NewReader(`{"precision": "int8"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /tables/catalog/precision: status %d, want 404 or 405", resp.StatusCode)
	}
	status, body := doJSON(t, http.MethodGet, ts.URL+"/tables", "")
	if status != http.StatusOK || len(body["tables"].([]any)) != 2 {
		t.Fatalf("listing after the PUT: %d %v", status, body)
	}
}

// TestCreateTableWithPrecision: a POST /tables body that still carries
// the retired "precision" field creates the table, the field ignored like
// any unknown one, and a threshold join over it is exact: the F32
// oracle's answer at 1e-5, with full recall.
func TestCreateTableWithPrecision(t *testing.T) {
	engine, err := service.NewEngine(service.Config{Dim: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serverFor(engine))
	t.Cleanup(ts.Close)
	for _, body := range []string{
		`{"name": "catalog", "schema": "sku:int,name:text", "csv": "sku,name\n1,barbecue\n2,database\n3,clothes\n", "precision": "int8"}`,
		`{"name": "feed", "schema": "title:text", "csv": "title\nbarbecues\ndatabases\nclothing\ngiraffe\n", "precision": "f16"}`,
	} {
		status, resp := doJSON(t, http.MethodPost, ts.URL+"/tables", body)
		if status != http.StatusCreated {
			t.Fatalf("create with a legacy precision field: %d %v", status, resp)
		}
		if _, ok := resp["precision"]; ok {
			t.Fatalf("create reply still reports a precision: %v", resp)
		}
	}

	status, body := doJSON(t, http.MethodPost, ts.URL+"/query",
		`{"sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35"}`)
	if status != http.StatusOK {
		t.Fatalf("query: %d %v", status, body)
	}
	if _, ok := body["precision"]; ok {
		t.Fatalf("query reply still reports a precision: %v", body)
	}
	var got []oracle.Match
	for _, raw := range body["matches"].([]any) {
		m := raw.(map[string]any)
		got = append(got, oracle.Match{Left: int(m["left"].(float64)), Right: int(m["right"].(float64)), Sim: m["sim"].(float64)})
	}
	if len(got) == 0 {
		t.Fatal("join returned no matches; test premise broken")
	}
	catalog, _ := engine.Catalog().Get("catalog")
	feed, _ := engine.Catalog().Get("feed")
	ans, err := oracle.Join(engine.Model(), oracle.Side{Table: catalog, Text: "name"}, oracle.Side{Table: feed, Text: "title"}, oracle.Spec{Threshold: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if err := ans.Check(got, 1e-5, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRowMutationEndpoints(t *testing.T) {
	ts := newTestServer(t)
	ingestPair(t, ts)

	countMatches := func() float64 {
		t.Helper()
		status, body := doJSON(t, http.MethodPost, ts.URL+"/query",
			`{"sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5"}`)
		if status != http.StatusOK {
			t.Fatalf("query: %d %v", status, body)
		}
		return float64(len(body["matches"].([]any)))
	}
	baseline := countMatches()

	// Upsert an exact duplicate of a catalog name into the feed: at least
	// one new sim=1.0 pair appears.
	status, body := doJSON(t, http.MethodPost, ts.URL+"/tables/feed/rows",
		`{"key": "title", "csv": "title\nbarbecue\n"}`)
	if status != http.StatusOK {
		t.Fatalf("upsert: %d %v", status, body)
	}
	if body["gen"].(float64) != 1 || body["upserted"].(float64) != 1 || body["live_rows"].(float64) != 5 {
		t.Fatalf("upsert body: %v", body)
	}
	if got := countMatches(); got <= baseline {
		t.Fatalf("matches after upsert %v, baseline %v", got, baseline)
	}

	// The CSV body variant replaces the same key (insert-vs-replace).
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/tables/feed/rows?key=title", strings.NewReader("title\nbarbecue\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var csvBody map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&csvBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || csvBody["replaced"].(float64) != 1 {
		t.Fatalf("csv upsert: %d %v", resp.StatusCode, csvBody)
	}

	// Delete restores the baseline; unknown keys count as missing.
	status, body = doJSON(t, http.MethodDelete, ts.URL+"/tables/feed/rows",
		`{"key": "title", "keys": ["barbecue", "nosuch"]}`)
	if status != http.StatusOK {
		t.Fatalf("delete: %d %v", status, body)
	}
	if body["deleted"].(float64) != 1 || body["missing"].(float64) != 1 {
		t.Fatalf("delete body: %v", body)
	}
	if got := countMatches(); got != baseline {
		t.Fatalf("matches after delete %v, want baseline %v", got, baseline)
	}

	// Mutation stats surface in /stats.
	status, body = doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatal("stats failed")
	}
	mut := body["mutation"].(map[string]any)
	if mut["upserts"].(float64) != 2 || mut["deletes"].(float64) != 1 {
		t.Fatalf("mutation stats: %v", mut)
	}
}

func TestRowMutationValidation(t *testing.T) {
	ts := newTestServer(t)
	ingestPair(t, ts)

	for _, tc := range []struct {
		name, method, url, body string
		want                    int
	}{
		{"missing key", http.MethodPost, "/tables/feed/rows", `{"csv": "title\nx\n"}`, http.StatusBadRequest},
		{"unknown table", http.MethodPost, "/tables/nosuch/rows", `{"key": "title", "csv": "title\nx\n"}`, http.StatusNotFound},
		{"schema mismatch", http.MethodPost, "/tables/feed/rows", `{"key": "title", "csv": "wrong\nx\n"}`, http.StatusBadRequest},
		{"bad key column", http.MethodPost, "/tables/feed/rows", `{"key": "nocol", "csv": "title\nx\n"}`, http.StatusBadRequest},
		{"empty keys", http.MethodDelete, "/tables/feed/rows", `{"key": "title", "keys": []}`, http.StatusBadRequest},
		{"delete unknown table", http.MethodDelete, "/tables/nosuch/rows", `{"key": "title", "keys": ["x"]}`, http.StatusNotFound},
	} {
		status, body := doJSON(t, tc.method, ts.URL+tc.url, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d), body %v", tc.name, status, tc.want, body)
		}
	}
}
