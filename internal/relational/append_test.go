package relational

import (
	"reflect"
	"testing"
)

func TestAppendRowsCopyOnWrite(t *testing.T) {
	schema := Schema{{Name: "id", Type: Int64}, {Name: "name", Type: String}}
	base, err := NewTable(schema, []Column{Int64Column{1, 2}, StringColumn{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewTable(schema, []Column{Int64Column{3}, StringColumn{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := AppendRows(base, batch)
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumRows() != 3 || base.NumRows() != 2 {
		t.Fatalf("rows: grown=%d base=%d", grown.NumRows(), base.NumRows())
	}
	// MVCC contract: the base version reads its prefix untouched.
	names, _ := base.Strings("name")
	if !reflect.DeepEqual(names, StringColumn{"a", "b"}) {
		t.Fatalf("base mutated: %v", names)
	}
	gnames, _ := grown.Strings("name")
	if !reflect.DeepEqual(gnames, StringColumn{"a", "b", "c"}) {
		t.Fatalf("grown: %v", gnames)
	}
}

func TestAppendRowsSchemaMismatch(t *testing.T) {
	a, _ := NewTable(Schema{{Name: "id", Type: Int64}}, []Column{Int64Column{1}})
	b, _ := NewTable(Schema{{Name: "id", Type: String}}, []Column{StringColumn{"x"}})
	if _, err := AppendRows(a, b); err == nil {
		t.Fatal("type-mismatched append accepted")
	}
	c, _ := NewTable(Schema{{Name: "other", Type: Int64}}, []Column{Int64Column{1}})
	if _, err := AppendRows(a, c); err == nil {
		t.Fatal("name-mismatched append accepted")
	}
}

// TestAppendRowsVectors: a column of a type AppendRows cannot grow — here
// one tagged 5, the retired stored-vector type — fails the append.
func TestAppendRowsVectors(t *testing.T) {
	schema := Schema{{Name: "vec", Type: Type(5)}}
	a, err := NewTable(schema, []Column{retiredColumn{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendRows(a, a); err == nil {
		t.Fatal("appended a type-5 column")
	}
}
