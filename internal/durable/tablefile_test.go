package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ejoin/internal/relational"
)

// fullTable builds a table exercising every column type.
func fullTable(t testing.TB) *relational.Table {
	t.Helper()
	schema := relational.Schema{
		{Name: "id", Type: relational.Int64},
		{Name: "price", Type: relational.Float64},
		{Name: "name", Type: relational.String},
		{Name: "when", Type: relational.Time},
		{Name: "ok", Type: relational.Bool},
	}
	tbl, err := relational.NewTable(schema, []relational.Column{
		relational.Int64Column{1, -2, 3},
		relational.Float64Column{0.5, -1.25, 9000},
		relational.StringColumn{"barbecue", "", "data, \"base\"\nnewline"},
		relational.TimeColumn{
			time.Date(2024, 3, 1, 12, 30, 45, 123456789, time.UTC),
			time.Unix(0, 0).UTC(),
			time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		},
		relational.BoolColumn{true, false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableFileRoundTrip(t *testing.T) {
	orig := fullTable(t)
	path := filepath.Join(t.TempDir(), "t.tbl")
	if err := WriteTableFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTableFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != orig.NumRows() || got.NumCols() != orig.NumCols() {
		t.Fatalf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), orig.NumRows(), orig.NumCols())
	}
	for c := range orig.Schema() {
		of, gf := orig.Schema()[c], got.Schema()[c]
		if of.Name != gf.Name || of.Type != gf.Type {
			t.Fatalf("schema field %d: %+v vs %+v", c, gf, of)
		}
	}
	for c := 0; c < orig.NumCols(); c++ {
		switch ocol := orig.ColumnAt(c).(type) {
		case relational.Int64Column:
			for r, v := range ocol {
				if got.ColumnAt(c).(relational.Int64Column)[r] != v {
					t.Fatalf("int col row %d", r)
				}
			}
		case relational.Float64Column:
			for r, v := range ocol {
				if got.ColumnAt(c).(relational.Float64Column)[r] != v {
					t.Fatalf("float col row %d", r)
				}
			}
		case relational.StringColumn:
			for r, v := range ocol {
				if got.ColumnAt(c).(relational.StringColumn)[r] != v {
					t.Fatalf("string col row %d: %q", r, got.ColumnAt(c).(relational.StringColumn)[r])
				}
			}
		case relational.TimeColumn:
			for r, v := range ocol {
				if !got.ColumnAt(c).(relational.TimeColumn)[r].Equal(v) {
					t.Fatalf("time col row %d: %v vs %v", r, got.ColumnAt(c).(relational.TimeColumn)[r], v)
				}
			}
		case relational.BoolColumn:
			for r, v := range ocol {
				if got.ColumnAt(c).(relational.BoolColumn)[r] != v {
					t.Fatalf("bool col row %d", r)
				}
			}
		}
	}
}

func TestTableFileDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	if err := WriteTableFile(path, fullTable(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte somewhere in the middle; the trailing CRC must catch
	// it no matter which field it lands in.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTableFile(path); err == nil {
		t.Fatal("corrupted table file read back without error")
	}
}

func TestManifestRoundTripAndMutation(t *testing.T) {
	path := filepath.Join(t.TempDir(), ManifestName)

	// Missing file = empty manifest.
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tables) != 0 {
		t.Fatalf("fresh manifest has %d tables", len(m.Tables))
	}

	m.Upsert(TableEntry{Name: "zeta", File: "tables/zeta.tbl", Rows: 3, Cols: 2})
	m.Upsert(TableEntry{Name: "alpha", File: "tables/alpha.tbl", Rows: 1, Cols: 1})
	m.Upsert(TableEntry{Name: "zeta", File: "tables/zeta.tbl", Rows: 9, Cols: 2}) // replace
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}

	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 2 {
		t.Fatalf("manifest has %d tables, want 2", len(got.Tables))
	}
	if got.Tables[0].Name != "alpha" || got.Tables[1].Name != "zeta" {
		t.Errorf("manifest not sorted: %+v", got.Tables)
	}
	if got.Tables[1].Rows != 9 {
		t.Errorf("upsert-replace lost: %+v", got.Tables[1])
	}
	if !got.Remove("alpha") || got.Remove("alpha") {
		t.Error("remove semantics broken")
	}

	// Version gate: a future-format manifest is refused, not misread.
	if err := os.WriteFile(path, []byte(`{"version": 99, "tables": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Error("future manifest version accepted")
	}
}

func TestTableFileCorruptRowCountFailsFast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	if err := WriteTableFile(path, fullTable(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// numRows is the u64 at offset 12 (after magic and numCols). Blow it
	// up to ~2^40: the reader must fail on a short read after at most one
	// bounded chunk — not attempt a terabyte-scale allocation (the CRC
	// only runs at end-of-file, so the bound must not depend on it).
	data[12+5] = 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTableFile(path); err == nil {
		t.Fatal("corrupt row count read back without error")
	}
}

// retiredVectorFile is a table file as the format once wrote it with a
// stored-vector column: type tag 5, then a u32 dimensionality and the
// rows' f32 values, under a valid checksum.
func retiredVectorFile() []byte {
	le := binary.LittleEndian
	var b bytes.Buffer
	b.Write(tblMagic[:])
	binary.Write(&b, le, uint32(2)) // columns
	binary.Write(&b, le, uint64(2)) // rows
	binary.Write(&b, le, uint16(2))
	b.WriteString("id")
	b.WriteByte(byte(relational.Int64))
	binary.Write(&b, le, []int64{7, 8})
	binary.Write(&b, le, uint16(3))
	b.WriteString("emb")
	b.WriteByte(5)
	binary.Write(&b, le, uint32(2)) // dim
	binary.Write(&b, le, []float32{1, 0, 0, 1})
	binary.Write(&b, le, crc32.Checksum(b.Bytes(), crcTable))
	return b.Bytes()
}

// TestTableFileRejectsRetiredVectorTag: a file with a column tagged 5 is
// refused, not read as some other type.
func TestTableFileRejectsRetiredVectorTag(t *testing.T) {
	if tbl, err := DecodeTable(retiredVectorFile()); err == nil {
		t.Fatalf("read a tag-5 column as %s", tbl.Schema())
	}
}

// sameTable reports the first difference between two tables, or "".
// Floats compare by bits, so a NaN read back as the same NaN is equal.
func sameTable(a, b *relational.Table) string {
	if a.Schema().String() != b.Schema().String() || a.NumRows() != b.NumRows() {
		return fmt.Sprintf("shape %s x %d vs %s x %d", a.Schema(), a.NumRows(), b.Schema(), b.NumRows())
	}
	for c := 0; c < a.NumCols(); c++ {
		for r := 0; r < a.NumRows(); r++ {
			var same bool
			switch x := a.ColumnAt(c).(type) {
			case relational.Int64Column:
				same = x[r] == b.ColumnAt(c).(relational.Int64Column)[r]
			case relational.Float64Column:
				same = math.Float64bits(x[r]) == math.Float64bits(b.ColumnAt(c).(relational.Float64Column)[r])
			case relational.StringColumn:
				same = x[r] == b.ColumnAt(c).(relational.StringColumn)[r]
			case relational.TimeColumn:
				same = x[r].Equal(b.ColumnAt(c).(relational.TimeColumn)[r])
			case relational.BoolColumn:
				same = x[r] == b.ColumnAt(c).(relational.BoolColumn)[r]
			}
			if !same {
				return fmt.Sprintf("column %d row %d", c, r)
			}
		}
	}
	return ""
}

// FuzzTableFile holds the table file decoder to three properties on
// arbitrary bytes: it never panics, it never accepts a column tagged 5
// (the retired stored-vector type), and a table it accepts re-encodes to
// exactly its input and decodes to the same table. Each input is also
// decoded with its trailing checksum recomputed, so the fuzzer reaches
// past the CRC check.
func FuzzTableFile(f *testing.F) {
	full, err := AppendTable(nil, fullTable(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(retiredVectorFile())
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if n := len(data) - 4; n >= 0 {
			fixed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(fixed[n:], crc32.Checksum(fixed[:n], crcTable))
			inputs = append(inputs, fixed)
		}
		for _, in := range inputs {
			tbl, err := DecodeTable(in)
			if err != nil {
				continue
			}
			for _, fd := range tbl.Schema() {
				if fd.Type == relational.Type(5) {
					t.Fatalf("accepted column %q tagged 5", fd.Name)
				}
			}
			buf, err := AppendTable(nil, tbl)
			if err != nil {
				t.Fatalf("decoded table does not re-encode: %v", err)
			}
			if !bytes.Equal(buf, in) {
				t.Fatal("decoded table re-encodes to other bytes")
			}
			back, err := DecodeTable(buf)
			if err != nil {
				t.Fatalf("re-encoded table does not decode: %v", err)
			}
			if diff := sameTable(tbl, back); diff != "" {
				t.Fatalf("round trip changed the table: %s", diff)
			}
		}
	})
}

func TestSanitizeName(t *testing.T) {
	plain := sanitizeName("orders_2024")
	if plain != "orders_2024" {
		t.Errorf("safe name mangled: %q", plain)
	}
	dotty := sanitizeName("../../etc/passwd")
	if dotty == "../../etc/passwd" || filepath.Base(dotty) != dotty {
		t.Errorf("unsafe name not contained: %q", dotty)
	}
	if sanitizeName("a/b") == sanitizeName("a.b") {
		t.Error("distinct unsafe names collide")
	}
}
