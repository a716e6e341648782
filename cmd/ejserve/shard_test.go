package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ejoin/internal/service"
	"ejoin/internal/shard"
)

// newShardedTestServer serves a 4-shard router over the same HTTP
// surface the unsharded tests exercise.
func newShardedTestServer(t *testing.T, shards int, part string) *httptest.Server {
	t.Helper()
	router, err := shard.Open(shard.Config{
		Shards:      shards,
		Partitioner: part,
		Engine:      service.Config{Dim: 32, ExecBlockRows: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	s := newServer(false)
	s.publish(routerBackend{router})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// TestShardedHTTPSurface drives the full endpoint set against a sharded
// backend and checks the answers agree with an unsharded server on the
// same data.
func TestShardedHTTPSurface(t *testing.T) {
	sharded := newShardedTestServer(t, 4, "")
	plain := newTestServer(t)
	ingestPair(t, sharded)
	ingestPair(t, plain)

	q := `{"sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35"}`
	query := func(ts *httptest.Server) []any {
		t.Helper()
		status, body := doJSON(t, http.MethodPost, ts.URL+"/query", q)
		if status != http.StatusOK {
			t.Fatalf("query: %d %v", status, body)
		}
		return body["matches"].([]any)
	}
	assertSame := func(ctx string) {
		t.Helper()
		got, want := query(sharded), query(plain)
		raw1, _ := json.Marshal(got)
		raw2, _ := json.Marshal(want)
		if string(raw1) != string(raw2) {
			t.Fatalf("%s: sharded matches diverge:\n%s\nvs unsharded:\n%s", ctx, raw1, raw2)
		}
		if len(got) == 0 {
			t.Fatalf("%s: no matches", ctx)
		}
	}
	assertSame("after ingest")

	// Mutations route through the router and stay in agreement.
	for _, ts := range []*httptest.Server{sharded, plain} {
		status, body := doJSON(t, http.MethodPost, ts.URL+"/tables/feed/rows",
			`{"key": "title", "csv": "title\nbarbecue\n"}`)
		if status != http.StatusOK {
			t.Fatalf("upsert: %d %v", status, body)
		}
		status, body = doJSON(t, http.MethodDelete, ts.URL+"/tables/feed/rows",
			`{"key": "title", "keys": ["giraffe"]}`)
		if status != http.StatusOK || body["deleted"].(float64) != 1 {
			t.Fatalf("delete: %d %v", status, body)
		}
	}
	assertSame("after mutations")

	// Listings aggregate per-shard rows back to the unsharded counts.
	rowsFor := func(ts *httptest.Server, name string) float64 {
		t.Helper()
		status, body := doJSON(t, http.MethodGet, ts.URL+"/tables", "")
		if status != http.StatusOK {
			t.Fatalf("list: %d", status)
		}
		for _, raw := range body["tables"].([]any) {
			entry := raw.(map[string]any)
			if entry["name"] == name {
				return entry["rows"].(float64)
			}
		}
		t.Fatalf("table %q missing from listing", name)
		return 0
	}
	if got, want := rowsFor(sharded, "feed"), rowsFor(plain, "feed"); got != want {
		t.Errorf("sharded feed listing has %v rows, unsharded %v", got, want)
	}

	// Drop works through the router.
	if status, _ := doJSON(t, http.MethodDelete, sharded.URL+"/tables/catalog", ""); status != http.StatusOK {
		t.Fatal("drop failed")
	}
	if status, _ := doJSON(t, http.MethodDelete, sharded.URL+"/tables/catalog", ""); status != http.StatusNotFound {
		t.Fatal("double drop not 404")
	}
}

// TestShardedStatsAndMetricsEndpoints pins the sharded observability
// surface over HTTP: RouterStats shape on /stats (per-shard plus
// aggregated, deterministic) and the ejoin_shard_* families on /metrics.
func TestShardedStatsAndMetricsEndpoints(t *testing.T) {
	ts := newShardedTestServer(t, 4, "hash")
	ingestPair(t, ts)
	q := `{"sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35"}`
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/query", q); status != http.StatusOK {
		t.Fatal("query failed")
	}

	status, stats := doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if stats["shards"].(float64) != 4 || stats["partitioner"] != "hash" {
		t.Fatalf("stats header: %v/%v", stats["shards"], stats["partitioner"])
	}
	if stats["queries"].(float64) != 1 || stats["fanout_queries"].(float64) != 1 {
		t.Fatalf("stats counters: %v", stats)
	}
	perShard, ok := stats["per_shard"].([]any)
	if !ok || len(perShard) != 4 {
		t.Fatalf("per_shard sections: %v", stats["per_shard"])
	}
	for i, raw := range perShard {
		sec := raw.(map[string]any)
		if _, ok := sec["store"]; !ok {
			t.Errorf("per_shard[%d] lacks the engine's store section", i)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{"ejoin_shard_count 4", "ejoin_shard_queries_total 1", "ejoin_shard_rows{shard=\"0\"}"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestShardedSnapshotMemoryOnly: a memory-only sharded deployment
// rejects /snapshot the same way a memory-only engine does.
func TestShardedSnapshotMemoryOnly(t *testing.T) {
	ts := newShardedTestServer(t, 2, "hash")
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/snapshot", ""); status != http.StatusConflict {
		t.Fatalf("memory-only sharded snapshot: %d, want 409", status)
	}
}
