package relational

import "fmt"

// SameSchema reports whether two schemas are identical (same fields, same
// types, same order). Row-level mutation requires exact schema equality:
// an upsert batch is a fragment of the table it lands in, not a new table.
func SameSchema(a, b Schema) error {
	if len(a) != len(b) {
		return fmt.Errorf("relational: schema mismatch: %d fields vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type {
			return fmt.Errorf("relational: schema mismatch at field %d: %s %s vs %s %s",
				i, a[i].Name, a[i].Type, b[i].Name, b[i].Type)
		}
	}
	return nil
}

// AppendRows returns a new table consisting of t's rows followed by
// batch's rows. Schemas must match exactly (SameSchema).
//
// Column storage is copy-on-write: the new table's columns share t's
// backing arrays as a prefix where capacity allows. This is safe under the
// MVCC discipline the mutation layer enforces — versions form a linear
// chain (writers are serialized per table), and an older version only ever
// reads indices below its own length, which appends never overwrite. Do
// not call AppendRows twice on the same base table from divergent chains.
func AppendRows(t, batch *Table) (*Table, error) {
	if err := SameSchema(t.Schema(), batch.Schema()); err != nil {
		return nil, err
	}
	cols := make([]Column, len(t.cols))
	for i := range t.cols {
		switch col := t.cols[i].(type) {
		case Int64Column:
			cols[i] = append(col, batch.cols[i].(Int64Column)...)
		case Float64Column:
			cols[i] = append(col, batch.cols[i].(Float64Column)...)
		case StringColumn:
			cols[i] = append(col, batch.cols[i].(StringColumn)...)
		case TimeColumn:
			cols[i] = append(col, batch.cols[i].(TimeColumn)...)
		case BoolColumn:
			cols[i] = append(col, batch.cols[i].(BoolColumn)...)
		default:
			return nil, fmt.Errorf("relational: append: unsupported column type %T", t.cols[i])
		}
	}
	return NewTable(t.schema, cols)
}
