package relational

// Pair is one join match: row indexes into the left and right inputs.
// E-join results are materialized late, by these offsets.
type Pair struct {
	Left  int
	Right int
}

// MaterializeJoin builds the joined table for pairs: all left columns
// (prefixed "l_") followed by all right columns (prefixed "r_").
func MaterializeJoin(left, right *Table, pairs []Pair) (*Table, error) {
	lsel := make(Selection, len(pairs))
	rsel := make(Selection, len(pairs))
	for i, p := range pairs {
		lsel[i] = p.Left
		rsel[i] = p.Right
	}
	lt, err := left.Select(lsel)
	if err != nil {
		return nil, err
	}
	rt, err := right.Select(rsel)
	if err != nil {
		return nil, err
	}
	schema := make(Schema, 0, lt.NumCols()+rt.NumCols())
	cols := make([]Column, 0, lt.NumCols()+rt.NumCols())
	for i, f := range lt.Schema() {
		schema = append(schema, Field{Name: "l_" + f.Name, Type: f.Type})
		cols = append(cols, lt.ColumnAt(i))
	}
	for i, f := range rt.Schema() {
		schema = append(schema, Field{Name: "r_" + f.Name, Type: f.Type})
		cols = append(cols, rt.ColumnAt(i))
	}
	return NewTable(schema, cols)
}
