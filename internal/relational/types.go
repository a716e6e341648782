// Package relational implements the column-store mini-engine the E-join
// operators compose with: typed columns, tables, predicate evaluation to
// selection vectors, bitmap pre-filters, and late materialization of join
// results.
//
// The paper's context-enhanced join runs inside an analytical RDBMS where
// relational predicates (dates, keys, measures) select tuples before or
// after the vector operation. This package is that substrate. Embeddings
// are first-class column values (VectorColumn), honoring the paper's
// reading of 1NF: a tensor is atomic to the DBMS (Section IV).
package relational

import (
	"fmt"
	"time"
)

// Type enumerates column types.
type Type int

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a 64-bit float column.
	Float64
	// String is a variable-length string column (context-rich data such as
	// words, documents, or serialized objects).
	String
	// Time is a timestamp column (the paper's date predicates).
	Time
	// Bool is a boolean column.
	Bool
	// Vector is a fixed-dimension float32 embedding column, stored
	// row-major. Atomic from the engine's point of view.
	Vector
)

// String returns the SQL-ish type name.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "TEXT"
	case Time:
		return "TIMESTAMP"
	case Bool:
		return "BOOLEAN"
	case Vector:
		return "VECTOR"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column is one typed column of a table.
type Column interface {
	// Type returns the column type.
	Type() Type
	// Len returns the number of rows.
	Len() int
}

// Int64Column stores int64 values.
type Int64Column []int64

// Type implements Column.
func (Int64Column) Type() Type { return Int64 }

// Len implements Column.
func (c Int64Column) Len() int { return len(c) }

// Float64Column stores float64 values.
type Float64Column []float64

// Type implements Column.
func (Float64Column) Type() Type { return Float64 }

// Len implements Column.
func (c Float64Column) Len() int { return len(c) }

// StringColumn stores string values.
type StringColumn []string

// Type implements Column.
func (StringColumn) Type() Type { return String }

// Len implements Column.
func (c StringColumn) Len() int { return len(c) }

// TimeColumn stores timestamps.
type TimeColumn []time.Time

// Type implements Column.
func (TimeColumn) Type() Type { return Time }

// Len implements Column.
func (c TimeColumn) Len() int { return len(c) }

// BoolColumn stores booleans.
type BoolColumn []bool

// Type implements Column.
func (BoolColumn) Type() Type { return Bool }

// Len implements Column.
func (c BoolColumn) Len() int { return len(c) }

// VectorColumn stores fixed-dimension float32 embeddings row-major.
type VectorColumn struct {
	Dim  int
	Data []float32 // len == rows*Dim
}

// NewVectorColumn builds a VectorColumn from row vectors, validating
// consistent dimensionality.
func NewVectorColumn(rows [][]float32) (*VectorColumn, error) {
	if len(rows) == 0 {
		return &VectorColumn{Dim: 0}, nil
	}
	d := len(rows[0])
	if d == 0 {
		return nil, fmt.Errorf("relational: zero-dimensional vectors")
	}
	c := &VectorColumn{Dim: d, Data: make([]float32, 0, len(rows)*d)}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("relational: vector row %d has dim %d, want %d", i, len(r), d)
		}
		c.Data = append(c.Data, r...)
	}
	return c, nil
}

// Type implements Column.
func (*VectorColumn) Type() Type { return Vector }

// Len implements Column.
func (c *VectorColumn) Len() int {
	if c.Dim == 0 {
		return 0
	}
	return len(c.Data) / c.Dim
}

// Row returns the i-th embedding as a slice aliasing column storage.
func (c *VectorColumn) Row(i int) []float32 {
	return c.Data[i*c.Dim : (i+1)*c.Dim : (i+1)*c.Dim]
}

// Gather returns a new column containing rows sel of c, in order.
func Gather(c Column, sel Selection) (Column, error) {
	switch col := c.(type) {
	case Int64Column:
		out := make(Int64Column, len(sel))
		for i, r := range sel {
			out[i] = col[r]
		}
		return out, nil
	case Float64Column:
		out := make(Float64Column, len(sel))
		for i, r := range sel {
			out[i] = col[r]
		}
		return out, nil
	case StringColumn:
		out := make(StringColumn, len(sel))
		for i, r := range sel {
			out[i] = col[r]
		}
		return out, nil
	case TimeColumn:
		out := make(TimeColumn, len(sel))
		for i, r := range sel {
			out[i] = col[r]
		}
		return out, nil
	case BoolColumn:
		out := make(BoolColumn, len(sel))
		for i, r := range sel {
			out[i] = col[r]
		}
		return out, nil
	case *VectorColumn:
		out := &VectorColumn{Dim: col.Dim, Data: make([]float32, 0, len(sel)*col.Dim)}
		for _, r := range sel {
			out.Data = append(out.Data, col.Row(r)...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("relational: gather: unsupported column type %T", c)
	}
}
