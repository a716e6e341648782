package shard

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ejoin/internal/cost"
	"ejoin/internal/model"
	"ejoin/internal/service"
)

func durableRouter(t *testing.T, dir string, shards int, part string) (*Router, *model.CountingModel) {
	t.Helper()
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	cm := model.NewCountingModel(base)
	cfg := service.Config{Model: cm, ExecBlockRows: 16, Threads: 2, DataDir: dir}
	r, err := Open(Config{Shards: shards, Partitioner: part, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return r, cm
}

// TestRouterWarmRestart is the durability round trip: ingest, query,
// snapshot, close, reopen — the reopened router must answer byte-
// identically without a single model call (per-shard embedding logs
// replay into the shared store).
func TestRouterWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sql := "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"

	r1, _ := durableRouter(t, dir, 4, "centroid")
	loadCorpus(t, r1)
	want, err := r1.Query(ctx, service.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("cold query produced no matches")
	}
	if _, err := r1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, cm := durableRouter(t, dir, 4, "centroid")
	defer r2.Close()
	cm.Reset()
	got, err := r2.Query(ctx, service.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "warm restart", want, got)
	if calls := cm.Calls(); calls != 0 {
		t.Errorf("warm restart made %d model calls, want 0", calls)
	}
}

// TestRouterRestartShardCountMismatch: reopening under a different shard
// count must fail loudly, not serve misrouted rows.
func TestRouterRestartShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	r1, _ := durableRouter(t, dir, 2, "hash")
	loadCorpus(t, r1)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{Model: base, DataDir: dir}
	if _, err := Open(Config{Shards: 4, Partitioner: "hash", Engine: cfg}); err == nil {
		t.Fatal("reopening a 2-shard deployment with 4 shards succeeded")
	}
}

// TestRouterManifestTailTrim simulates the crash window the write-ahead
// manifest leaves open: the manifest promises global rows the shards
// never durably received. Recovery must trim the phantom tail and keep
// serving the rows that exist.
func TestRouterManifestTailTrim(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sql := "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"

	r1, _ := durableRouter(t, dir, 2, "hash")
	loadCorpus(t, r1)
	want, err := r1.Query(ctx, service.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// Append phantom gids to both shards' rowmaps for table l, as if an
	// upsert's manifest write landed but the crash ate the shard WALs.
	path := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	tm := m.Tables["l"]
	if tm == nil {
		t.Fatal("manifest has no table l")
	}
	tm.RowMaps[0] = append(tm.RowMaps[0], tm.NextGlobal)
	tm.RowMaps[1] = append(tm.RowMaps[1], tm.NextGlobal+1)
	tm.NextGlobal += 2
	out, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, _ := durableRouter(t, dir, 2, "hash")
	defer r2.Close()
	got, err := r2.Query(ctx, service.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "post-trim", want, got)

	// The trim was persisted: the manifest on disk no longer promises the
	// phantom rows, but the high-water mark survives so trimmed gids are
	// never reissued.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m2 manifest
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	if n := len(m2.Tables["l"].RowMaps[0]); n != len(tm.RowMaps[0])-1 {
		t.Errorf("shard 0 rowmap has %d entries after trim, want %d", n, len(tm.RowMaps[0])-1)
	}
	if m2.Tables["l"].NextGlobal != tm.NextGlobal {
		t.Errorf("high-water mark %d, want preserved %d", m2.Tables["l"].NextGlobal, tm.NextGlobal)
	}
}

// TestRouterStatsAndMetrics exercises the aggregated observability
// surface: fan-out counters, per-shard sections, one physical strategy
// per fan-out (the tensor scan), and one well-formed ejoin_shard_*
// exposition.
func TestRouterStatsAndMetrics(t *testing.T) {
	cfg := diffConfig(t)
	r := newRouter(t, cfg, 4, "hash", loadCorpus)
	ctx := context.Background()
	if _, err := r.Query(ctx, service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query(ctx, service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON TOPK(l.word, r.term, 3)"}); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.Shards != 4 || st.Partitioner != "hash" {
		t.Errorf("stats header %d/%q, want 4/hash", st.Shards, st.Partitioner)
	}
	if st.Queries != 2 || st.FanoutQueries != 2 {
		t.Errorf("queries=%d fanouts=%d, want 2/2", st.Queries, st.FanoutQueries)
	}
	if st.FanoutPairs != 8 {
		t.Errorf("fanout streams %d, want 8 (two fan-outs of one stream per probe shard)", st.FanoutPairs)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard sections %d, want 4", len(st.PerShard))
	}
	if st.Tables != 2 {
		t.Errorf("tables %d, want 2", st.Tables)
	}
	if st.PartitionSkew < 1 {
		t.Errorf("partition skew %v, want >= 1", st.PartitionSkew)
	}
	for s, ps := range st.PerShard {
		if ps.Queries != 0 {
			t.Errorf("shard %d engine counted %d queries; the router executes queries itself", s, ps.Queries)
		}
	}
	var recorded int64
	for name, n := range st.Strategies {
		if name != cost.StrategyTensor.String() {
			t.Errorf("%d fan-outs recorded strategy %q, not the tensor scan", n, name)
		}
		recorded += n
	}
	if recorded != 2 {
		t.Errorf("%d strategies recorded for 2 fan-outs, want one each", recorded)
	}
	if st.Join.ModelCalls == 0 {
		t.Error("aggregated join stats carry no model calls")
	}

	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, fam := range []string{
		"ejoin_shard_count",
		"ejoin_shard_queries_total",
		"ejoin_shard_fanout_queries_total",
		"ejoin_shard_fanout_pairs_total",
		"ejoin_shard_truncated_queries_total",
		"ejoin_shard_merge_wait_seconds_total",
		"ejoin_shard_partition_skew",
		"ejoin_shard_rows",
		"ejoin_shard_query_duration_seconds",
		"ejoin_shard_pair_duration_seconds",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("metrics exposition is missing family %s", fam)
		}
	}
	if strings.Count(text, "# TYPE ejoin_shard_count ") != 1 {
		t.Error("duplicate or missing TYPE line for ejoin_shard_count")
	}
}
