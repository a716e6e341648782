package relational

import (
	"fmt"
	"time"
)

// Selection is a selection vector: ordered row indexes that survived a
// predicate. Operators downstream consume selections without materializing
// intermediate tables (late materialization).
type Selection []int

// All returns the identity selection of n rows.
func All(n int) Selection {
	s := make(Selection, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Intersect returns rows present in both sorted selections.
func (s Selection) Intersect(other Selection) Selection {
	out := make(Selection, 0, min(len(s), len(other)))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] == other[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < other[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CmpOp is a comparison operator for scalar predicates.
type CmpOp int

const (
	// EQ is equality.
	EQ CmpOp = iota
	// NE is inequality.
	NE
	// LT is less-than.
	LT
	// LE is less-or-equal.
	LE
	// GT is greater-than.
	GT
	// GE is greater-or-equal.
	GE
)

// String returns the operator symbol.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

func cmpMatches[T int64 | float64 | string](op CmpOp, a, b T) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	default:
		return false
	}
}

func cmpTime(op CmpOp, a, b time.Time) bool {
	switch op {
	case EQ:
		return a.Equal(b)
	case NE:
		return !a.Equal(b)
	case LT:
		return a.Before(b)
	case LE:
		return !a.After(b)
	case GT:
		return a.After(b)
	case GE:
		return !a.Before(b)
	default:
		return false
	}
}

// Pred is a single-column comparison predicate: Column Op Value. Value must
// match the column type (int64, float64, string, time.Time, or bool with EQ/NE).
type Pred struct {
	Column string
	Op     CmpOp
	Value  any
}

// String renders the predicate.
func (p Pred) String() string {
	return fmt.Sprintf("%s %s %v", p.Column, p.Op, p.Value)
}

// Eval evaluates the predicate over the table and returns the selection of
// matching rows, in row order.
func (p Pred) Eval(t *Table) (Selection, error) {
	col, err := t.Column(p.Column)
	if err != nil {
		return nil, err
	}
	switch c := col.(type) {
	case Int64Column:
		v, ok := toInt64(p.Value)
		if !ok {
			return nil, fmt.Errorf("relational: predicate %s: value %T not comparable to BIGINT", p, p.Value)
		}
		return filterSlice(c, func(x int64) bool { return cmpMatches(p.Op, x, v) }), nil
	case Float64Column:
		v, ok := toFloat64(p.Value)
		if !ok {
			return nil, fmt.Errorf("relational: predicate %s: value %T not comparable to DOUBLE", p, p.Value)
		}
		return filterSlice(c, func(x float64) bool { return cmpMatches(p.Op, x, v) }), nil
	case StringColumn:
		v, ok := p.Value.(string)
		if !ok {
			return nil, fmt.Errorf("relational: predicate %s: value %T not comparable to TEXT", p, p.Value)
		}
		return filterSlice(c, func(x string) bool { return cmpMatches(p.Op, x, v) }), nil
	case TimeColumn:
		v, ok := p.Value.(time.Time)
		if !ok {
			return nil, fmt.Errorf("relational: predicate %s: value %T not comparable to TIMESTAMP", p, p.Value)
		}
		return filterSlice(c, func(x time.Time) bool { return cmpTime(p.Op, x, v) }), nil
	case BoolColumn:
		v, ok := p.Value.(bool)
		if !ok {
			return nil, fmt.Errorf("relational: predicate %s: value %T not comparable to BOOLEAN", p, p.Value)
		}
		if p.Op != EQ && p.Op != NE {
			return nil, fmt.Errorf("relational: predicate %s: BOOLEAN supports only =/!=", p)
		}
		return filterSlice(c, func(x bool) bool {
			if p.Op == EQ {
				return x == v
			}
			return x != v
		}), nil
	default:
		return nil, fmt.Errorf("relational: predicate %s: unsupported column type %v", p, col.Type())
	}
}

func toInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	default:
		return 0, false
	}
}

func toFloat64(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

func filterSlice[T any](col []T, keep func(T) bool) Selection {
	var sel Selection
	for i, x := range col {
		if keep(x) {
			sel = append(sel, i)
		}
	}
	return sel
}

// And evaluates all predicates and intersects their selections
// (conjunction), starting from the first predicate's. With no predicates
// it selects every row.
func And(t *Table, preds ...Pred) (Selection, error) {
	if len(preds) == 0 {
		return All(t.NumRows()), nil
	}
	sel, err := preds[0].Eval(t)
	if err != nil {
		return nil, err
	}
	for _, p := range preds[1:] {
		s, err := p.Eval(t)
		if err != nil {
			return nil, err
		}
		sel = sel.Intersect(s)
	}
	return sel, nil
}
