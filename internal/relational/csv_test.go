package relational

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func csvSchema() Schema {
	return Schema{
		{Name: "id", Type: Int64},
		{Name: "price", Type: Float64},
		{Name: "name", Type: String},
		{Name: "active", Type: Bool},
		{Name: "when", Type: Time},
	}
}

const csvBody = `id,price,name,active,when
1,9.5,ant,true,2023-01-02
2,20,bee,false,2023-02-03T04:05:06Z
`

func TestReadCSV(t *testing.T) {
	tbl, err := ReadCSV(strings.NewReader(csvBody), csvSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	ids, _ := tbl.Ints("id")
	if ids[1] != 2 {
		t.Errorf("ids = %v", ids)
	}
	prices, _ := tbl.Floats("price")
	if prices[0] != 9.5 {
		t.Errorf("prices = %v", prices)
	}
	names, _ := tbl.Strings("name")
	if names[0] != "ant" {
		t.Errorf("names = %v", names)
	}
	flags, _ := tbl.Column("active")
	if flags.(BoolColumn)[0] != true {
		t.Error("bools wrong")
	}
	whens, _ := tbl.Times("when")
	if whens[0].Day() != 2 || whens[1].Hour() != 4 {
		t.Errorf("times = %v", whens)
	}
}

func TestReadCSVErrors(t *testing.T) {
	schema := csvSchema()
	cases := map[string]string{
		"empty":        "",
		"short header": "id,price\n",
		"wrong name":   "id,price,NAME,active,when\n",
		"bad int":      "id,price,name,active,when\nx,1,a,true,2023-01-01\n",
		"bad float":    "id,price,name,active,when\n1,x,a,true,2023-01-01\n",
		"bad bool":     "id,price,name,active,when\n1,1,a,maybe,2023-01-01\n",
		"bad time":     "id,price,name,active,when\n1,1,a,true,jan-1\n",
	}
	for name, body := range cases {
		if _, err := ReadCSV(strings.NewReader(body), schema); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A type CSV has no reader for (5, the retired stored-vector tag).
	vs := Schema{{Name: "v", Type: Type(5)}}
	if _, err := ReadCSV(strings.NewReader("v\n"), vs); err == nil {
		t.Error("expected type 5 rejection")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig, err := ReadCSV(strings.NewReader(csvBody), csvSchema())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, csvSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != orig.NumRows() {
		t.Fatalf("rows: %d vs %d", back.NumRows(), orig.NumRows())
	}
	a, _ := orig.Times("when")
	b, _ := back.Times("when")
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("time %d: %v vs %v", i, a[i], b[i])
		}
	}
	an, _ := orig.Strings("name")
	bn, _ := back.Strings("name")
	for i := range an {
		if an[i] != bn[i] {
			t.Errorf("name %d: %q vs %q", i, an[i], bn[i])
		}
	}
}

// TestWriteCSVRejectsVectors: a column WriteCSV has no text form for —
// here one tagged 5, the retired stored-vector type — is an error, not a
// silently blank field.
func TestWriteCSVRejectsVectors(t *testing.T) {
	tbl, err := NewTable(Schema{{Name: "v", Type: Type(5)}}, []Column{retiredColumn{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&bytes.Buffer{}, tbl); err == nil {
		t.Error("expected error")
	}
}

type retiredColumn struct{}

func (retiredColumn) Type() Type { return Type(5) }
func (retiredColumn) Len() int   { return 1 }

func TestParseSchema(t *testing.T) {
	schema, err := ParseSchema("sku:int,name:text,price:float,when:time,ok:bool")
	if err != nil {
		t.Fatal(err)
	}
	want := []Type{Int64, String, Float64, Time, Bool}
	if len(schema) != len(want) {
		t.Fatalf("schema = %v", schema)
	}
	for i, f := range schema {
		if f.Type != want[i] {
			t.Errorf("field %d type = %v, want %v", i, f.Type, want[i])
		}
	}
	// Spaces around names and type tokens are ignored; type names are
	// case-insensitive and have aliases.
	spaced, err := ParseSchema(" sku : INT , name: string,d :date")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Schema{{Name: "sku", Type: Int64}, {Name: "name", Type: String}, {Name: "d", Type: Time}}); !slices.Equal(spaced, want) {
		t.Errorf("spaced schema = %v, want %v", spaced, want)
	}
	for spec, why := range map[string]string{
		"bad":            "want col:type",
		"x:vector":       "unknown type",
		"k:int,k:text":   "duplicate column name",
		"k:int, k :text": "duplicate column name",
		":int,b:text":    "empty column name",
		" :int":          "empty column name",
		"a:int,":         "want col:type",
		"a:int,b:":       "unknown type",
	} {
		if _, err := ParseSchema(spec); err == nil || !strings.Contains(err.Error(), why) {
			t.Errorf("%q: err = %v, want one mentioning %q", spec, err, why)
		}
	}
}
