package ejoin

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/service"
)

// TestCSVPublicAPI round-trips a table through the CSV format both front
// ends ingest (POST /tables, ejsql -table), with the schema in their
// col:type spec syntax.
func TestCSVPublicAPI(t *testing.T) {
	schema, err := relational.ParseSchema("id:int,name:text")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := relational.ReadCSV(strings.NewReader("id,name\n1,ant\n2,bee\n"), schema)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	var buf bytes.Buffer
	if err := relational.WriteCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	back, err := relational.ReadCSV(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	names, _ := back.Strings("name")
	if names[1] != "bee" {
		t.Errorf("round trip names = %v", names)
	}
}

// TestFullPipelinePublicAPI chains CSV ingestion -> relational predicate ->
// semantic join -> materialized output through the engine's front door.
func TestFullPipelinePublicAPI(t *testing.T) {
	engine, err := service.NewEngine(service.Config{Dim: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	for _, tb := range []struct{ name, schema, csv string }{
		{"catalog", "sku:int,name:text", "sku,name\n1,barbecue\n2,database\n3,clothes\n"},
		{"feed", "title:text", "title\nbarbecues\ndatabases\nclothing\ngiraffe\n"},
	} {
		schema, err := relational.ParseSchema(tb.schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.RegisterCSV(tb.name, schema, strings.NewReader(tb.csv), false); err != nil {
			t.Fatal(err)
		}
	}
	res, err := engine.Query(context.Background(), service.QueryRequest{
		SQL:         "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35 WHERE catalog.sku <= 2",
		Materialize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v", res.Matches)
	}
	joined := res.Table
	if joined.NumRows() != len(res.Matches) {
		t.Fatalf("materialized %d rows for %d matches", joined.NumRows(), len(res.Matches))
	}
	skus, err := joined.Ints("l_sku")
	if err != nil {
		t.Fatal(err)
	}
	sims, err := joined.Floats("similarity")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.Matches {
		if skus[i] > 2 {
			t.Errorf("row %d: predicate violated, sku %d", i, skus[i])
		}
		if sims[i] < 0.35 || sims[i] != float64(m.Sim) {
			t.Errorf("row %d: similarity %v, match %+v", i, sims[i], m)
		}
	}
}

// TestFacadePrecisionLadder: a precision name parses to its rung.
func TestFacadePrecisionLadder(t *testing.T) {
	if p, err := quant.ParsePrecision("int8"); err != nil || p != quant.PrecisionInt8 {
		t.Fatalf("ParsePrecision: %v %v", p, err)
	}
}
