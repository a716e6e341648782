package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ejoin/internal/relational"
	"ejoin/internal/service"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseSchema checks the schema part of a -table spec: every type
// token ejsql documents registers a column of that type, and a schema
// relational.ParseSchema rejects never registers a table.
func TestParseSchema(t *testing.T) {
	eng, err := service.NewEngine(service.Config{Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	path := writeFile(t, "all.csv", "sku,name,price,when,ok\n1,ant,2.5,2023-01-02,true\n")
	if err := loadTable(eng, "all="+path+";sku:int, name:text ,price:float,when:time,ok:bool"); err != nil {
		t.Fatal(err)
	}
	tbl, ok := eng.Catalog().Get("all")
	if !ok {
		t.Fatal("table not registered")
	}
	schema := tbl.Schema()
	want := []relational.Type{relational.Int64, relational.String, relational.Float64, relational.Time, relational.Bool}
	if len(schema) != len(want) {
		t.Fatalf("schema = %v", schema)
	}
	for i, f := range schema {
		if f.Type != want[i] {
			t.Errorf("field %d type = %v, want %v", i, f.Type, want[i])
		}
	}
	for _, schemaSpec := range []string{"bad", "x:vector", ":int,name:text", "sku:int,sku:text"} {
		if err := loadTable(eng, "bad="+path+";"+schemaSpec); err == nil {
			t.Errorf("schema %q: expected error", schemaSpec)
		}
	}
	if eng.HasTable("bad") {
		t.Error("a rejected schema registered its table")
	}
}

func TestLoadTable(t *testing.T) {
	eng, err := service.NewEngine(service.Config{Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	path := writeFile(t, "c.csv", "sku,name\n1,ant\n")
	if err := loadTable(eng, "catalog="+path+";sku:int,name:text"); err != nil {
		t.Fatal(err)
	}
	if tables := eng.Tables(); len(tables) != 1 || tables[0].Name != "catalog" || tables[0].Rows != 1 {
		t.Errorf("tables = %+v", tables)
	}
	bad := []string{
		"nopath",
		"x=only-path-no-schema",
		"=path;a:int",
		"x=/does/not/exist.csv;a:int",
		"x=" + path + ";a:vector",
		"x=" + path + ";sku:int,sku:text",
	}
	for _, spec := range bad {
		if err := loadTable(eng, spec); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
	// Schema/CSV mismatch surfaces.
	if err := loadTable(eng, "x="+path+";other:int,name:text"); err == nil {
		t.Error("expected header mismatch error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	left := writeFile(t, "catalog.csv", "sku,name\n1,barbecue\n2,database\n3,clothes\n")
	right := writeFile(t, "feed.csv", "title,score\nbarbecues,5\ndatabases,1\ngiraffe,9\n")
	out := writeFile(t, "out.csv", "")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var explain bytes.Buffer
	err = run(
		[]string{
			"catalog=" + left + ";sku:int,name:text",
			"feed=" + right + ";title:text,score:int",
		},
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35 WHERE feed.score >= 2",
		64, true, f, &explain,
	)
	if err != nil {
		t.Fatal(err)
	}
	// -explain renders the analyzed plan tree (est vs obs cardinality per
	// node) and the span timeline.
	report := explain.String()
	for _, want := range []string{"EXPLAIN ANALYZE", "est=", "obs=", "EJoin(", "-- span"} {
		if !strings.Contains(report, want) {
			t.Errorf("explain report missing %q:\n%s", want, report)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	if !strings.Contains(body, "l_name") || !strings.Contains(body, "similarity") {
		t.Errorf("header missing:\n%s", body)
	}
	if !strings.Contains(body, "barbecue") || !strings.Contains(body, "barbecues") {
		t.Errorf("expected barbecue match:\n%s", body)
	}
	if strings.Contains(body, "databases") {
		t.Errorf("score filter not applied:\n%s", body)
	}
	if strings.Contains(body, "giraffe") {
		t.Errorf("semantic threshold not applied:\n%s", body)
	}
}

func TestRunValidation(t *testing.T) {
	f := os.Stdout
	if err := run(nil, "SELECT", 64, false, f, io.Discard); err == nil {
		t.Error("expected missing-table error")
	}
	if err := run([]string{"x=y;a:int"}, "", 64, false, f, io.Discard); err == nil {
		t.Error("expected missing-query error")
	}
	path := writeFile(t, "c.csv", "name\nant\n")
	if err := run([]string{"c=" + path + ";name:text"}, "garbage query", 64, false, f, io.Discard); err == nil {
		t.Error("expected parse error")
	}
	if err := run([]string{"c=" + path + ";name:text"},
		"SELECT * FROM c JOIN c ON SIM(c.name, c.name) >= 0.5", 0, false, f, io.Discard); err == nil {
		t.Error("expected model dim error")
	}
}
