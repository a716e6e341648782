// Package plan implements the logical side of the context-enhanced join:
// the relational-algebra extension of Section III (embedding operator E_µ
// composed with σ and ⋈), the rewrite rules of Section IV, and a physical
// planner that applies the cost model's access path selection.
//
// The naive plan a non-expert user writes (Figure 1) eagerly embeds whole
// tables and joins with per-pair model calls. The optimizer rewrites it
// using the paper's algebraic equivalences:
//
//	σθ(E_µ(R))  ⇔  E_µ(σθ(R))          (E-Selection: filter pushdown)
//	R ⋈_{E,µ,θ} S  ⇔  E_µ(R) ⋈θ E_µ(S)  (E-θ-Join: prefetch hoist)
//
// plus the smaller-relation-inner ordering heuristic and the cost model's
// estimate of the plan. Every join input embeds a TEXT column, and a
// served plan is one operator, the tensor scan; the paper's other access
// paths (the tuple-at-a-time core.NLJ and core.NaiveNLJ, the index join
// core.IndexJoin) are kernels the benchmarks time, never plans.
package plan

import (
	"fmt"
	"strings"

	"ejoin/internal/cost"
	"ejoin/internal/model"
	"ejoin/internal/relational"
)

// JoinKind distinguishes the join condition shape.
type JoinKind int

const (
	// ThresholdJoin matches pairs with cosine similarity >= Threshold.
	ThresholdJoin JoinKind = iota
	// TopKJoin matches each left tuple with its K most similar right tuples.
	TopKJoin
)

// String names the join kind.
func (k JoinKind) String() string {
	switch k {
	case ThresholdJoin:
		return "threshold"
	case TopKJoin:
		return "top-k"
	default:
		return fmt.Sprintf("JoinKind(%d)", int(k))
	}
}

// JoinSpec is the declarative join condition: the user supplies the model
// and one similarity parameter, nothing else (Section III-B).
type JoinSpec struct {
	Kind JoinKind
	// Threshold applies to ThresholdJoin and, when >= -1 with TopKJoin,
	// additionally filters matches (range condition over top-k).
	Threshold float32
	// K applies to TopKJoin.
	K int
}

// TableRef binds one side of the join to a table and its roles.
type TableRef struct {
	// Name labels the input in explain output.
	Name string
	// Table is the data.
	Table *relational.Table
	// TextColumn is the context-rich column to embed (E_µ input).
	TextColumn string
	// Predicates are relational filters on this input.
	Predicates []relational.Pred
	// Visible, when non-nil, restricts the scan to these global row ids —
	// the MVCC visibility set of the generation snapshot a query pinned
	// (live rows; tombstoned rows are excluded). nil means every physical
	// row is visible.
	Visible relational.Selection
}

// Query is the declarative hybrid query: join Left with Right on semantic
// similarity of their context-rich columns under the model, after
// relational predicates.
type Query struct {
	Left, Right TableRef
	Model       model.Model
	Join        JoinSpec
}

// Node is a logical plan operator.
type Node interface {
	// Explain renders this node (without children).
	Explain() string
	// Children returns input operators.
	Children() []Node
}

// Scan reads a base table.
type Scan struct {
	Ref TableRef
}

// Explain implements Node.
func (s *Scan) Explain() string {
	rows := 0
	if s.Ref.Table != nil {
		rows = s.Ref.Table.NumRows()
	}
	if s.Ref.Visible != nil {
		return fmt.Sprintf("Scan(%s, rows=%d, visible=%d)", s.Ref.Name, rows, len(s.Ref.Visible))
	}
	return fmt.Sprintf("Scan(%s, rows=%d)", s.Ref.Name, rows)
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Filter applies relational predicates (σθ).
type Filter struct {
	Input Node
	Preds []relational.Pred
	// rows is the count of base-table rows the predicates select, once
	// counted (counted): the planner's estimates ask for it several times
	// per query, and each count is a pass over the whole table.
	rows    int
	counted bool
}

// Explain implements Node.
func (f *Filter) Explain() string {
	parts := make([]string, len(f.Preds))
	for i, p := range f.Preds {
		parts[i] = p.String()
	}
	return fmt.Sprintf("Filter(%s)", strings.Join(parts, " AND "))
}

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Embed applies the embedding operator E_µ to a column.
type Embed struct {
	Input  Node
	Column string
	Model  model.Model
}

// Explain implements Node.
func (e *Embed) Explain() string {
	return fmt.Sprintf("Embed(E_µ[%s], column=%s)", e.Model.Name(), e.Column)
}

// Children implements Node.
func (e *Embed) Children() []Node { return []Node{e.Input} }

// EJoin is the context-enhanced join operator.
type EJoin struct {
	Left, Right Node
	Spec        JoinSpec
	// Swapped records the smaller-inner reordering.
	Swapped bool
	// Strategy is the physical operator: StrategyTensor, the one the
	// executor runs (it rejects any other).
	Strategy cost.Strategy
	// EstRows is the output cardinality estimate (-1 = none). Top-k joins
	// emit exactly k matches per surviving left row; threshold joins use
	// the crude one-match-per-left-row heuristic. Optimize sets it to
	// StaticRows; a caller that learns from executed queries may then
	// scale it, which is what EXPLAIN reports as est_rows.
	EstRows int64
	// StaticRows is the uncorrected heuristic estimate EstRows started
	// from, kept so both can be scored against the observed match count.
	StaticRows int64
	// Estimates holds the cost model's estimate of the tensor scan, keyed
	// by its strategy.
	Estimates map[cost.Strategy]float64
}

// Explain implements Node.
func (j *EJoin) Explain() string {
	cond := ""
	switch j.Spec.Kind {
	case ThresholdJoin:
		cond = fmt.Sprintf("sim >= %.2f", j.Spec.Threshold)
	case TopKJoin:
		cond = fmt.Sprintf("top-%d", j.Spec.K)
		if j.Spec.Threshold > -1 {
			cond += fmt.Sprintf(" AND sim >= %.2f", j.Spec.Threshold)
		}
	}
	return fmt.Sprintf("EJoin(%s, strategy=%s, swapped=%v)", cond, j.Strategy, j.Swapped)
}

// Children implements Node.
func (j *EJoin) Children() []Node { return []Node{j.Left, j.Right} }

// NewNaivePlan builds the unoptimized plan of Figure 1: embed eagerly over
// the whole table, filter afterwards, and join tuple at a time. It is the
// optimizer's input, not an executable plan: its strategy names the NLJ,
// which the executor rejects.
func NewNaivePlan(q Query) (*EJoin, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	build := func(ref TableRef) Node {
		var n Node = &Embed{Input: &Scan{Ref: ref}, Column: ref.TextColumn, Model: q.Model}
		if len(ref.Predicates) > 0 {
			n = countedFilter(n, &Filter{Preds: ref.Predicates})
		}
		return n
	}
	left, right := build(q.Left), build(q.Right)
	est := estimateJoinRows(q.Join, left)
	return &EJoin{
		Left:       left,
		Right:      right,
		Spec:       q.Join,
		Strategy:   cost.StrategyNLJ,
		EstRows:    est,
		StaticRows: est,
	}, nil
}

// estimateJoinRows estimates a join's output cardinality from its left
// input's estimate (see EJoin.EstRows for the heuristic's limits).
func estimateJoinRows(spec JoinSpec, left Node) int64 {
	lr := int64(estimateRows(left))
	if spec.Kind == TopKJoin {
		return lr * int64(spec.K)
	}
	return lr
}

func validateQuery(q Query) error {
	for _, ref := range []TableRef{q.Left, q.Right} {
		if ref.Table == nil {
			return fmt.Errorf("plan: input %q has no table", ref.Name)
		}
		if ref.TextColumn == "" {
			return fmt.Errorf("plan: input %q has no text column", ref.Name)
		}
		if q.Model == nil {
			return fmt.Errorf("plan: input %q needs embedding but query has no model", ref.Name)
		}
		if _, err := ref.Table.Strings(ref.TextColumn); err != nil {
			return fmt.Errorf("plan: input %q: %w", ref.Name, err)
		}
	}
	switch q.Join.Kind {
	case ThresholdJoin:
		if q.Join.Threshold < -1 || q.Join.Threshold > 1 {
			return fmt.Errorf("plan: threshold %v outside [-1, 1]", q.Join.Threshold)
		}
	case TopKJoin:
		if q.Join.K <= 0 {
			return fmt.Errorf("plan: top-k join requires k > 0, got %d", q.Join.K)
		}
	default:
		return fmt.Errorf("plan: unknown join kind %v", q.Join.Kind)
	}
	return nil
}
