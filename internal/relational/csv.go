package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// CSV ingestion: the loading path from files into columnar tables. The
// header row must match the schema's field names (same order); values are
// parsed per the schema's types. Timestamps accept RFC 3339 or the common
// "2006-01-02" date form.

// ParseSchema parses a schema spec "col:type,col:type" — the form both
// front ends accept for CSV ingestion. Types are int, float, text (or
// string), time (or date) and bool, case-insensitive; spaces around a
// name or type are ignored. Empty and duplicate column names are
// rejected: a table with two columns of one name would bind every
// reference to the first.
func ParseSchema(spec string) (Schema, error) {
	var schema Schema
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		col, typ, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("schema field %q: want col:type", part)
		}
		col, typ = strings.TrimSpace(col), strings.TrimSpace(typ)
		if col == "" {
			return nil, fmt.Errorf("schema field %q: empty column name", part)
		}
		if seen[col] {
			return nil, fmt.Errorf("schema field %q: duplicate column name %q", part, col)
		}
		seen[col] = true
		var t Type
		switch strings.ToLower(typ) {
		case "int":
			t = Int64
		case "float":
			t = Float64
		case "text", "string":
			t = String
		case "time", "date":
			t = Time
		case "bool":
			t = Bool
		default:
			return nil, fmt.Errorf("schema field %q: unknown type %q", part, typ)
		}
		schema = append(schema, Field{Name: col, Type: t})
	}
	return schema, nil
}

// timeLayouts are accepted timestamp formats, most specific first.
var timeLayouts = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
}

// ReadCSV parses CSV content into a table with the given schema.
func ReadCSV(r io.Reader, schema Schema) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relational: csv: reading header: %w", err)
	}
	if len(header) != len(schema) {
		return nil, fmt.Errorf("relational: csv: header has %d fields, schema %d", len(header), len(schema))
	}
	for i, h := range header {
		if h != schema[i].Name {
			return nil, fmt.Errorf("relational: csv: header field %d is %q, schema says %q", i, h, schema[i].Name)
		}
	}

	builders := make([]func(string) error, len(schema))
	cols := make([]Column, len(schema))
	for i, f := range schema {
		switch f.Type {
		case Int64:
			c := Int64Column{}
			cols[i] = c
			idx := i
			builders[i] = func(s string) error {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return err
				}
				cols[idx] = append(cols[idx].(Int64Column), v)
				return nil
			}
		case Float64:
			idx := i
			cols[i] = Float64Column{}
			builders[i] = func(s string) error {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return err
				}
				cols[idx] = append(cols[idx].(Float64Column), v)
				return nil
			}
		case String:
			idx := i
			cols[i] = StringColumn{}
			builders[i] = func(s string) error {
				cols[idx] = append(cols[idx].(StringColumn), s)
				return nil
			}
		case Bool:
			idx := i
			cols[i] = BoolColumn{}
			builders[i] = func(s string) error {
				v, err := strconv.ParseBool(s)
				if err != nil {
					return err
				}
				cols[idx] = append(cols[idx].(BoolColumn), v)
				return nil
			}
		case Time:
			idx := i
			cols[i] = TimeColumn{}
			builders[i] = func(s string) error {
				ts, err := parseTime(s)
				if err != nil {
					return err
				}
				cols[idx] = append(cols[idx].(TimeColumn), ts)
				return nil
			}
		default:
			return nil, fmt.Errorf("relational: csv: unsupported type %v", f.Type)
		}
	}

	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relational: csv: row %d: %w", row+1, err)
		}
		for i, cell := range rec {
			if err := builders[i](cell); err != nil {
				return nil, fmt.Errorf("relational: csv: row %d column %q: %w", row+1, schema[i].Name, err)
			}
		}
		row++
	}
	return NewTable(schema, cols)
}

func parseTime(s string) (time.Time, error) {
	var lastErr error
	for _, layout := range timeLayouts {
		ts, err := time.Parse(layout, s)
		if err == nil {
			return ts, nil
		}
		lastErr = err
	}
	return time.Time{}, lastErr
}

// WriteCSV renders the table as CSV with a header row, the inverse of
// ReadCSV.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Schema()))
	for i, f := range t.Schema() {
		header[i] = f.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c := 0; c < t.NumCols(); c++ {
			switch col := t.ColumnAt(c).(type) {
			case Int64Column:
				rec[c] = strconv.FormatInt(col[r], 10)
			case Float64Column:
				rec[c] = strconv.FormatFloat(col[r], 'g', -1, 64)
			case StringColumn:
				rec[c] = col[r]
			case BoolColumn:
				rec[c] = strconv.FormatBool(col[r])
			case TimeColumn:
				rec[c] = col[r].Format(time.RFC3339)
			default:
				return fmt.Errorf("relational: csv: column %q: unsupported type %v", t.Schema()[c].Name, col.Type())
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
