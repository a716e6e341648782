package ejoin

import (
	"context"
	"testing"

	"ejoin/internal/relational"
	"ejoin/internal/service"
)

func stringTable(t *testing.T, col string, vals ...string) *relational.Table {
	t.Helper()
	tbl, err := relational.NewTable(
		relational.Schema{{Name: col, Type: relational.String}},
		[]relational.Column{relational.StringColumn(vals)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestEngineFacade drives the serving layer the way ejserve does: an
// engine with defaults, table registration, a sqlish query, a structured
// join, and stats.
func TestEngineFacade(t *testing.T) {
	engine, err := service.NewEngine(service.Config{Dim: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if err := engine.RegisterTable("catalog", stringTable(t, "name", "barbecue", "database")); err != nil {
		t.Fatal(err)
	}
	if err := engine.RegisterTable("feed", stringTable(t, "title", "barbecues", "databases", "giraffe")); err != nil {
		t.Fatal(err)
	}

	res, err := engine.Query(context.Background(), service.QueryRequest{
		SQL: "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Errorf("matches = %d, want 2", len(res.Matches))
	}

	res, err = engine.Query(context.Background(), service.QueryRequest{
		Join: &service.JoinRequest{
			LeftTable: "catalog", LeftColumn: "name",
			RightTable: "feed", RightColumn: "title",
			Kind: "topk", K: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Errorf("topk matches = %d, want 2", len(res.Matches))
	}

	st := engine.Stats()
	if st.Queries != 2 || st.Tables != 2 {
		t.Errorf("stats: queries=%d tables=%d", st.Queries, st.Tables)
	}
	if st.Store.Entries == 0 {
		t.Error("store is empty after two queries")
	}
	if infos := engine.Tables(); len(infos) != 2 {
		t.Errorf("tables = %+v", infos)
	}
}

// TestOpenEngineFacade drives the durable path: open on a data directory,
// ingest, query, snapshot, close, reopen, and serve the repeated query from
// the recovered cache.
func TestOpenEngineFacade(t *testing.T) {
	dir := t.TempDir()
	open := func() *service.Engine {
		engine, err := service.Open(service.Config{Dim: 32, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return engine
	}

	engine := open()
	catalog := stringTable(t, "name", "barbecue", "database")
	if err := engine.RegisterTable("catalog", catalog); err != nil {
		t.Fatal(err)
	}
	if err := engine.RegisterTable("feed", catalog); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.name) >= 0.9"
	cold, err := engine.Query(context.Background(), service.QueryRequest{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}

	engine2 := open()
	defer engine2.Close()
	warm, err := engine2.Query(context.Background(), service.QueryRequest{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Matches) != len(cold.Matches) {
		t.Fatalf("warm matches %d, cold %d", len(warm.Matches), len(cold.Matches))
	}
	st := engine2.Stats()
	if st.Store.ModelCalls != 0 {
		t.Errorf("warm reopen cost %d model calls, want 0", st.Store.ModelCalls)
	}
	if st.Durable == nil || st.Durable.LoadedTables != 2 {
		t.Errorf("durable stats = %+v", st.Durable)
	}
}
