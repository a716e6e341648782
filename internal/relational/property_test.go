package relational

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property-based tests on the engine's core data structures.

func normalizeRows(raw []uint16, n int) Selection {
	seen := map[int]bool{}
	var sel Selection
	for _, r := range raw {
		v := int(r) % n
		if !seen[v] {
			seen[v] = true
			sel = append(sel, v)
		}
	}
	// Selections are ordered.
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j] < sel[j-1]; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	return sel
}

// Bitmap round trip: Selection -> Bitmap -> Selection is the identity.
func TestBitmapRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		sel := normalizeRows(raw, n)
		back := BitmapFromSelection(n, sel).ToSelection()
		if len(back) != len(sel) {
			return false
		}
		for i := range sel {
			if back[i] != sel[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Bitmap count equals selection length (sets deduplicate).
func TestBitmapCountProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		sel := normalizeRows(raw, n)
		return BitmapFromSelection(n, sel).Count() == len(sel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Intersection properties: commutative, subset of both, idempotent.
func TestIntersectProperties(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		const n = 4096
		a := normalizeRows(rawA, n)
		b := normalizeRows(rawB, n)
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		inA := map[int]bool{}
		for _, r := range a {
			inA[r] = true
		}
		inB := map[int]bool{}
		for _, r := range b {
			inB[r] = true
		}
		for _, r := range ab {
			if !inA[r] || !inB[r] {
				return false
			}
		}
		aa := a.Intersect(a)
		if len(aa) != len(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Gather then gather with identity preserves content; Select on a random
// table preserves row content at the selected offsets.
func TestSelectPreservesRowsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		ids := make(Int64Column, n)
		names := make(StringColumn, n)
		for i := range ids {
			ids[i] = rng.Int63n(1000)
			names[i] = string(rune('a' + rng.Intn(26)))
		}
		tbl, err := NewTable(
			Schema{{Name: "id", Type: Int64}, {Name: "name", Type: String}},
			[]Column{ids, names},
		)
		if err != nil {
			t.Fatal(err)
		}
		var sel Selection
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				sel = append(sel, i)
			}
		}
		sub, err := tbl.Select(sel)
		if err != nil {
			t.Fatal(err)
		}
		subIDs, _ := sub.Ints("id")
		subNames, _ := sub.Strings("name")
		for i, r := range sel {
			if subIDs[i] != ids[r] || subNames[i] != names[r] {
				t.Fatalf("trial %d: row %d mismatch", trial, i)
			}
		}
	}
}

// Predicate partition property: EQ and NE selections partition the table.
func TestPredicatePartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		col := make(Int64Column, n)
		for i := range col {
			col[i] = rng.Int63n(5)
		}
		tbl, _ := NewTable(Schema{{Name: "v", Type: Int64}}, []Column{col})
		pivot := rng.Int63n(5)
		eq, err := Pred{"v", EQ, pivot}.Eval(tbl)
		if err != nil {
			t.Fatal(err)
		}
		ne, err := Pred{"v", NE, pivot}.Eval(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if len(eq)+len(ne) != n {
			t.Fatalf("trial %d: EQ+NE = %d+%d != %d", trial, len(eq), len(ne), n)
		}
		if len(eq.Intersect(ne)) != 0 {
			t.Fatalf("trial %d: EQ and NE overlap", trial)
		}
		// LT + GE also partition.
		lt, _ := Pred{"v", LT, pivot}.Eval(tbl)
		ge, _ := Pred{"v", GE, pivot}.Eval(tbl)
		if len(lt)+len(ge) != n {
			t.Fatalf("trial %d: LT+GE don't partition", trial)
		}
	}
}

// And is the intersection of All(n) with every predicate's selection, in
// order, which is how it was first defined; it now starts from the first
// predicate's selection. Zero, one and two predicates, an error in each
// place, over a random BIGINT column.
func TestAndMatchesIntersectionFromAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	col := make(Int64Column, 500)
	for i := range col {
		col[i] = rng.Int63n(100)
	}
	tbl, err := NewTable(Schema{{Name: "a", Type: Int64}}, []Column{col})
	if err != nil {
		t.Fatal(err)
	}
	old := func(preds ...Pred) (Selection, error) {
		sel := All(tbl.NumRows())
		for _, p := range preds {
			s, err := p.Eval(tbl)
			if err != nil {
				return nil, err
			}
			sel = sel.Intersect(s)
		}
		return sel, nil
	}
	bad := Pred{Column: "missing", Op: LT, Value: int64(1)}
	for _, preds := range [][]Pred{
		nil,
		{{Column: "a", Op: LT, Value: int64(30)}},
		{{Column: "a", Op: GE, Value: int64(200)}},
		{{Column: "a", Op: LT, Value: int64(60)}, {Column: "a", Op: GE, Value: int64(20)}},
		{{Column: "a", Op: LT, Value: int64(5)}, {Column: "a", Op: GT, Value: int64(90)}},
		{bad},
		{bad, {Column: "a", Op: LT, Value: int64(30)}},
		{{Column: "a", Op: LT, Value: int64(30)}, bad},
	} {
		got, err := And(tbl, preds...)
		want, wantErr := old(preds...)
		if (err != nil) != (wantErr != nil) || !slices.Equal(got, want) {
			t.Errorf("And(%v) = %v, %v; the intersection from All is %v, %v", preds, got, err, want, wantErr)
		}
	}
}
