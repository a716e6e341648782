package relational

import (
	"testing"
	"time"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	base := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	tbl, err := NewTable(
		Schema{
			{Name: "id", Type: Int64},
			{Name: "price", Type: Float64},
			{Name: "name", Type: String},
			{Name: "taken", Type: Time},
			{Name: "flag", Type: Bool},
		},
		[]Column{
			Int64Column{1, 2, 3, 4, 5},
			Float64Column{10.5, 20, 5, 40, 25},
			StringColumn{"ant", "bee", "cat", "dog", "eel"},
			TimeColumn{base, base.AddDate(0, 1, 0), base.AddDate(0, 2, 0), base.AddDate(0, 3, 0), base.AddDate(0, 4, 0)},
			BoolColumn{true, false, true, false, true},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Int64: "BIGINT", Float64: "DOUBLE", String: "TEXT",
		Time: "TIMESTAMP", Bool: "BOOLEAN", Type(5): "Type(5)",
	}
	// The tags are the table file's on-disk type bytes: none may move.
	if Int64 != 0 || Float64 != 1 || String != 2 || Time != 3 || Bool != 4 {
		t.Errorf("type tags moved: %d %d %d %d %d", Int64, Float64, String, Time, Bool)
	}
	for typ, want := range cases {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Errorf("unknown = %q", Type(99).String())
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(Schema{{Name: "a", Type: Int64}}, nil); err == nil {
		t.Error("expected field/column count mismatch error")
	}
	if _, err := NewTable(Schema{{Name: "a", Type: Int64}}, []Column{nil}); err == nil {
		t.Error("expected nil column error")
	}
	if _, err := NewTable(Schema{{Name: "a", Type: Int64}}, []Column{StringColumn{"x"}}); err == nil {
		t.Error("expected type mismatch error")
	}
	if _, err := NewTable(
		Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Int64}},
		[]Column{Int64Column{1, 2}, Int64Column{1}},
	); err == nil {
		t.Error("expected row count mismatch error")
	}
	empty, err := NewTable(Schema{}, []Column{})
	if err != nil || empty.NumRows() != 0 || empty.NumCols() != 0 {
		t.Errorf("empty table: %v %v", empty, err)
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.NumRows() != 5 || tbl.NumCols() != 5 {
		t.Fatalf("shape %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if _, err := tbl.Column("missing"); err == nil {
		t.Error("expected missing column error")
	}
	ids, err := tbl.Ints("id")
	if err != nil || ids[4] != 5 {
		t.Errorf("Ints: %v %v", ids, err)
	}
	if _, err := tbl.Ints("name"); err == nil {
		t.Error("expected type error")
	}
	prices, err := tbl.Floats("price")
	if err != nil || prices[1] != 20 {
		t.Errorf("Floats: %v %v", prices, err)
	}
	if _, err := tbl.Floats("id"); err == nil {
		t.Error("expected type error")
	}
	names, err := tbl.Strings("name")
	if err != nil || names[0] != "ant" {
		t.Errorf("Strings: %v %v", names, err)
	}
	if _, err := tbl.Strings("id"); err == nil {
		t.Error("expected type error")
	}
	times, err := tbl.Times("taken")
	if err != nil || times[0].Year() != 2023 {
		t.Errorf("Times: %v %v", times, err)
	}
	if _, err := tbl.Times("id"); err == nil {
		t.Error("expected type error")
	}
	if got := tbl.Schema().String(); got == "" {
		t.Error("empty schema string")
	}
	if tbl.Schema().IndexOf("price") != 1 {
		t.Error("IndexOf broken")
	}
	if tbl.Schema().IndexOf("zzz") != -1 {
		t.Error("IndexOf should be -1")
	}
	if tbl.ColumnAt(2).Type() != String {
		t.Error("ColumnAt broken")
	}
}

func TestWithColumn(t *testing.T) {
	tbl := sampleTable(t)
	t2, err := tbl.WithColumn("emb", Float64Column{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if t2.NumCols() != 6 {
		t.Errorf("cols = %d", t2.NumCols())
	}
	got, err := t2.Floats("emb")
	if err != nil || got.Len() != 5 {
		t.Errorf("Floats: %v", err)
	}
	// Replace existing.
	t3, err := t2.WithColumn("emb", Int64Column{9, 9, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if t3.NumCols() != 6 {
		t.Errorf("replace should not add: %d", t3.NumCols())
	}
	if _, err := t3.Ints("emb"); err != nil {
		t.Errorf("replaced type: %v", err)
	}
	// Length mismatch rejected.
	if _, err := tbl.WithColumn("bad", Int64Column{1}); err == nil {
		t.Error("expected length error")
	}
	// Original untouched.
	if tbl.NumCols() != 5 {
		t.Error("WithColumn mutated original")
	}
}

func TestPredEval(t *testing.T) {
	tbl := sampleTable(t)
	cases := []struct {
		pred Pred
		want Selection
	}{
		{Pred{"id", GT, int64(3)}, Selection{3, 4}},
		{Pred{"id", GE, 3}, Selection{2, 3, 4}},
		{Pred{"id", LT, int64(2)}, Selection{0}},
		{Pred{"id", LE, int64(2)}, Selection{0, 1}},
		{Pred{"id", EQ, int64(3)}, Selection{2}},
		{Pred{"id", NE, int64(3)}, Selection{0, 1, 3, 4}},
		{Pred{"price", GT, 19.0}, Selection{1, 3, 4}},
		{Pred{"name", EQ, "cat"}, Selection{2}},
		{Pred{"name", GE, "dog"}, Selection{3, 4}},
		{Pred{"flag", EQ, true}, Selection{0, 2, 4}},
		{Pred{"flag", NE, true}, Selection{1, 3}},
	}
	for _, c := range cases {
		got, err := c.pred.Eval(tbl)
		if err != nil {
			t.Fatalf("%s: %v", c.pred, err)
		}
		if !equalSel(got, c.want) {
			t.Errorf("%s = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestPredEvalTime(t *testing.T) {
	tbl := sampleTable(t)
	cut := time.Date(2023, 2, 15, 0, 0, 0, 0, time.UTC)
	sel, err := Pred{"taken", GT, cut}.Eval(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSel(sel, Selection{2, 3, 4}) {
		t.Errorf("time filter = %v", sel)
	}
	exact := time.Date(2023, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		op   CmpOp
		want int
	}{{EQ, 1}, {NE, 4}, {LE, 2}, {GE, 4}, {LT, 1}} {
		sel, err := Pred{"taken", c.op, exact}.Eval(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel) != c.want {
			t.Errorf("taken %s: %d rows, want %d", c.op, len(sel), c.want)
		}
	}
}

func TestPredErrors(t *testing.T) {
	tbl := sampleTable(t)
	bad := []Pred{
		{"missing", EQ, int64(1)},
		{"id", EQ, "nope"},
		{"price", EQ, "nope"},
		{"name", EQ, 42},
		{"taken", EQ, 42},
		{"flag", EQ, 42},
		{"flag", LT, true},
	}
	for _, p := range bad {
		if _, err := p.Eval(tbl); err == nil {
			t.Errorf("%s: expected error", p)
		}
	}
}

func TestAndSelectivity(t *testing.T) {
	tbl := sampleTable(t)
	sel, err := And(tbl, Pred{"id", GT, int64(1)}, Pred{"flag", EQ, true})
	if err != nil {
		t.Fatal(err)
	}
	if !equalSel(sel, Selection{2, 4}) {
		t.Errorf("And = %v", sel)
	}
	all, err := And(tbl)
	if err != nil || len(all) != 5 {
		t.Errorf("And() = %v, %v", all, err)
	}
	if _, err := And(tbl, Pred{"missing", EQ, int64(1)}); err == nil {
		t.Error("expected error")
	}
}

func TestSelectionIntersect(t *testing.T) {
	a := Selection{1, 3, 5, 7}
	b := Selection{3, 4, 5, 9}
	if got := a.Intersect(b); !equalSel(got, Selection{3, 5}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Intersect(Selection{}); len(got) != 0 {
		t.Errorf("empty intersect = %v", got)
	}
}

func TestSelectMaterialize(t *testing.T) {
	tbl := sampleTable(t)
	sub, err := tbl.Select(Selection{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumRows() != 2 {
		t.Fatalf("rows = %d", sub.NumRows())
	}
	names, _ := sub.Strings("name")
	if names[0] != "eel" || names[1] != "ant" {
		t.Errorf("order not preserved: %v", names)
	}
}

func TestGatherAllTypes(t *testing.T) {
	tbl := sampleTable(t)
	sub, err := tbl.Select(Selection{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for c := range tbl.Schema() {
		if got := sub.ColumnAt(c).Len(); got != 2 {
			t.Errorf("column %s gathered %d rows, want 2", tbl.Schema()[c].Name, got)
		}
	}
	flags, _ := sub.Column("flag")
	if flags.(BoolColumn)[0] != false {
		t.Error("bool gather broken")
	}
}

func TestGatherUnsupported(t *testing.T) {
	if _, err := Gather(fakeColumn{}, Selection{0}); err == nil {
		t.Error("expected unsupported type error")
	}
}

type fakeColumn struct{}

func (fakeColumn) Type() Type { return Type(99) }
func (fakeColumn) Len() int   { return 1 }

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap: %d/%d", b.Len(), b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	if !b.Get(63) || !b.Get(64) || b.Get(1) {
		t.Error("Get wrong")
	}
	if b.Get(-1) || b.Get(500) {
		t.Error("out of range should be false")
	}
	b.Clear(63)
	if b.Get(63) || b.Count() != 3 {
		t.Error("Clear failed")
	}
	sel := b.ToSelection()
	if !equalSel(sel, Selection{0, 64, 129}) {
		t.Errorf("ToSelection = %v", sel)
	}
}

func TestBitmapFromSelection(t *testing.T) {
	b := BitmapFromSelection(100, Selection{1, 50, 99})
	if b.Len() != 100 || b.Count() != 3 {
		t.Errorf("Len, Count = %d, %d", b.Len(), b.Count())
	}
	if !equalSel(b.ToSelection(), Selection{1, 50, 99}) {
		t.Errorf("ToSelection = %v", b.ToSelection())
	}
}

func TestMaterializeJoin(t *testing.T) {
	l, _ := NewTable(
		Schema{{Name: "k", Type: Int64}, {Name: "lv", Type: String}},
		[]Column{Int64Column{1, 2}, StringColumn{"x", "y"}},
	)
	r, _ := NewTable(
		Schema{{Name: "k", Type: Int64}, {Name: "rv", Type: Float64}},
		[]Column{Int64Column{2, 1}, Float64Column{20, 10}},
	)
	// l row 0 (k=1) pairs with r row 1; l row 1 (k=2) with r row 0.
	out, err := MaterializeJoin(l, r, []Pair{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.NumCols() != 4 {
		t.Fatalf("shape %dx%d", out.NumRows(), out.NumCols())
	}
	lk, _ := out.Ints("l_k")
	rk, _ := out.Ints("r_k")
	for i := range lk {
		if lk[i] != rk[i] {
			t.Errorf("row %d: keys differ: %d vs %d", i, lk[i], rk[i])
		}
	}
}

func TestCmpOpString(t *testing.T) {
	ops := map[CmpOp]string{EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v", op)
		}
	}
	if CmpOp(42).String() != "CmpOp(42)" {
		t.Error("unknown op")
	}
}

func equalSel(a, b Selection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
