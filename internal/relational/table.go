package relational

import (
	"fmt"
	"strings"
)

// Field describes one table column.
type Field struct {
	Name string
	Type Type
}

// Schema is an ordered list of fields.
type Schema []Field

// IndexOf returns the position of the named field, or -1.
func (s Schema) IndexOf(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// String renders the schema as "name TYPE, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.Name + " " + f.Type.String()
	}
	return strings.Join(parts, ", ")
}

// Table is an immutable columnar table: a schema plus one equal-length
// column per field.
type Table struct {
	schema Schema
	cols   []Column
	rows   int
	// incarnation is the row lineage the table belongs to (see
	// Incarnation); 0 means none.
	incarnation uint64
}

// Incarnation identifies the append-only lineage of a mutable table's
// physical versions: tables carrying the same nonzero incarnation agree on
// every row they both have, so anything derived from row i (its embedding)
// may be shared between them. A compaction, which renumbers rows, starts
// a new lineage. 0 means the table belongs to no lineage.
func (t *Table) Incarnation() uint64 { return t.incarnation }

// WithIncarnation returns t under lineage id, sharing its columns. Only
// the owner of an append-only lineage (mutation.Table) should call it.
func (t *Table) WithIncarnation(id uint64) *Table {
	out := *t
	out.incarnation = id
	return &out
}

// NewTable validates that columns match the schema's types and have equal
// lengths, then wraps them (without copying).
func NewTable(schema Schema, cols []Column) (*Table, error) {
	if len(schema) != len(cols) {
		return nil, fmt.Errorf("relational: %d fields but %d columns", len(schema), len(cols))
	}
	rows := -1
	for i, c := range cols {
		if c == nil {
			return nil, fmt.Errorf("relational: column %q is nil", schema[i].Name)
		}
		if c.Type() != schema[i].Type {
			return nil, fmt.Errorf("relational: column %q is %v, schema says %v", schema[i].Name, c.Type(), schema[i].Type)
		}
		if rows == -1 {
			rows = c.Len()
		} else if c.Len() != rows {
			return nil, fmt.Errorf("relational: column %q has %d rows, want %d", schema[i].Name, c.Len(), rows)
		}
	}
	if rows == -1 {
		rows = 0
	}
	return &Table{schema: schema, cols: cols, rows: rows}, nil
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Column returns the named column.
func (t *Table) Column(name string) (Column, error) {
	i := t.schema.IndexOf(name)
	if i < 0 {
		return nil, fmt.Errorf("relational: no column %q (have: %s)", name, t.schema)
	}
	return t.cols[i], nil
}

// ColumnAt returns the i-th column.
func (t *Table) ColumnAt(i int) Column { return t.cols[i] }

// Ints returns the named column as Int64Column.
func (t *Table) Ints(name string) (Int64Column, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	col, ok := c.(Int64Column)
	if !ok {
		return nil, fmt.Errorf("relational: column %q is %v, not BIGINT", name, c.Type())
	}
	return col, nil
}

// Floats returns the named column as Float64Column.
func (t *Table) Floats(name string) (Float64Column, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	col, ok := c.(Float64Column)
	if !ok {
		return nil, fmt.Errorf("relational: column %q is %v, not DOUBLE", name, c.Type())
	}
	return col, nil
}

// Strings returns the named column as StringColumn.
func (t *Table) Strings(name string) (StringColumn, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	col, ok := c.(StringColumn)
	if !ok {
		return nil, fmt.Errorf("relational: column %q is %v, not TEXT", name, c.Type())
	}
	return col, nil
}

// Times returns the named column as TimeColumn.
func (t *Table) Times(name string) (TimeColumn, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	col, ok := c.(TimeColumn)
	if !ok {
		return nil, fmt.Errorf("relational: column %q is %v, not TIMESTAMP", name, c.Type())
	}
	return col, nil
}

// WithColumn returns a new table with the named column appended (or
// replaced, if a column of that name exists).
func (t *Table) WithColumn(name string, col Column) (*Table, error) {
	if col.Len() != t.rows && !(t.rows == 0 && len(t.cols) == 0) {
		return nil, fmt.Errorf("relational: new column %q has %d rows, table has %d", name, col.Len(), t.rows)
	}
	if i := t.schema.IndexOf(name); i >= 0 {
		schema := append(Schema{}, t.schema...)
		schema[i] = Field{Name: name, Type: col.Type()}
		cols := append([]Column{}, t.cols...)
		cols[i] = col
		return NewTable(schema, cols)
	}
	schema := append(append(Schema{}, t.schema...), Field{Name: name, Type: col.Type()})
	cols := append(append([]Column{}, t.cols...), col)
	return NewTable(schema, cols)
}

// Select materializes the rows in sel as a new table (the Gather of every
// column). This is the relational σ applied via a selection vector.
func (t *Table) Select(sel Selection) (*Table, error) {
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		g, err := Gather(c, sel)
		if err != nil {
			return nil, err
		}
		cols[i] = g
	}
	return NewTable(t.schema, cols)
}
