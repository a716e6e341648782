package plan

import (
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/relational"
)

// Optimizer rewrites logical plans and prices them. Its estimates depend
// only on exact input counts and store residency: nothing learned from
// executed queries reaches them.
type Optimizer struct {
	// Params parametrizes the cost model; zero value uses defaults.
	Params cost.Params
	// DisableReorder switches off the smaller-inner reordering rule (the
	// shard router makes that decision once per fan-out).
	DisableReorder bool
	// ForceStrategy, if not nil, names the strategy to plan. Only the
	// tensor scan executes: forcing any other is an error, which lets a
	// caller timing each strategy skip the ones with no operator.
	ForceStrategy *cost.Strategy
	// Store, when set, makes the estimate cache-aware: the optimizer
	// discounts each input's E_µ cost term by the share of its rows the
	// shared embedding store already holds (see expectedHitRatio).
	Store *embstore.Store
}

// NewOptimizer returns an optimizer with default cost parameters.
func NewOptimizer() *Optimizer {
	return &Optimizer{Params: cost.DefaultParams()}
}

// Optimize applies, in order: filter pushdown below E_µ, smaller-inner
// reordering, and the tensor scan's cost estimate. Embedding prefetch
// (Rule 2, the E-θ-Join equivalence R ⋈_{E,µ,θ} S ⇔ E_µ(R) ⋈_θ E_µ(S))
// needs no rewrite: every executable plan evaluates E_µ once per input,
// never once per compared pair. The input plan is not mutated. A
// ForceStrategy naming anything but the tensor scan is an error.
func (o *Optimizer) Optimize(root *EJoin) (*EJoin, error) {
	if o.ForceStrategy != nil {
		if err := executable(*o.ForceStrategy); err != nil {
			return nil, err
		}
	}
	params := o.Params
	if params.Validate() != nil {
		params = cost.DefaultParams()
	}

	out := &EJoin{
		Left:  pushDown(root.Left),
		Right: pushDown(root.Right),
		Spec:  root.Spec,
	}
	// Output cardinality estimate, from the original (pre-reorder) left:
	// match counts are orientation-independent, and the pre-swap left is
	// the side the condition is phrased around.
	out.StaticRows = estimateJoinRows(out.Spec, out.Left)
	out.EstRows = out.StaticRows

	// Rule 3: smaller (estimated, post-filter) relation becomes the right
	// (inner) input for cache locality; Figure 10 measures ~35% impact.
	// Top-k joins are per-left-row and therefore not symmetric: reordering
	// would change results, so only threshold joins reorder.
	if !o.DisableReorder && out.Spec.Kind == ThresholdJoin &&
		estimateRows(out.Left) < estimateRows(out.Right) {
		out.Left, out.Right = out.Right, out.Left
		out.Swapped = true
	}

	// Rule 4: the access path is the tensor scan; price it with the
	// post-filter input counts and the store's warmth (Table I).
	hitL, hitR := o.expectedHitRatio(out.Left), o.expectedHitRatio(out.Right)
	out.Strategy = cost.StrategyTensor
	out.Estimates = map[cost.Strategy]float64{
		cost.StrategyTensor: params.TensorJoinWarm(estimateRows(out.Left), estimateRows(out.Right), hitL, hitR),
	}
	return out, nil
}

// pushDown applies the E-Selection equivalence to one join input:
// σθ(E_µ(R)) ⇔ E_µ(σθ(R)). Pushing the relational filter below the
// embedding means only surviving tuples are embedded — the cardinality
// of the costliest operator drops without user intervention. The input
// is not mutated; a Filter in the result carries its row count, so the
// estimates that follow count each filter once.
func pushDown(n Node) Node {
	switch t := n.(type) {
	case *Filter:
		if e, ok := t.Input.(*Embed); ok {
			return &Embed{Input: countedFilter(e.Input, t), Column: e.Column, Model: e.Model}
		}
		return countedFilter(t.Input, t)
	case *Embed:
		if f, ok := t.Input.(*Filter); ok {
			return &Embed{Input: countedFilter(f.Input, f), Column: t.Column, Model: t.Model}
		}
	}
	return n
}

// countedFilter is f's predicates over input with their row count (see
// Filter): f's own when f has one, else counted now.
func countedFilter(input Node, f *Filter) *Filter {
	out := &Filter{Input: input, Preds: f.Preds, rows: f.rows, counted: f.counted}
	if !out.counted {
		out.rows, out.counted = estimateRows(out), true
	}
	return out
}

// estimateRows walks the input subtree and estimates output cardinality,
// applying predicate selectivities when computable exactly (predicates are
// evaluated against the base table — cheap, and this engine has no
// histogram substrate). A counted Filter answers from its count.
func estimateRows(n Node) int {
	switch t := n.(type) {
	case *Scan:
		if t.Ref.Table == nil {
			return 0
		}
		return t.Ref.Table.NumRows()
	case *Embed:
		return estimateRows(t.Input)
	case *Filter:
		if t.counted {
			return t.rows
		}
		base := findScan(t.Input)
		if base == nil || base.Ref.Table == nil {
			return estimateRows(t.Input)
		}
		sel, err := relational.And(base.Ref.Table, t.Preds...)
		if err != nil {
			return estimateRows(t.Input)
		}
		return len(sel)
	default:
		return 0
	}
}

// EstimateRefRows estimates a table reference's post-predicate row count
// the same way the reorder rule does: physical rows, narrowed by exact
// relational selectivity when predicates are present. The shard router
// sums these across shards to make its one global swap decision.
func EstimateRefRows(ref TableRef) int {
	if ref.Table == nil {
		return 0
	}
	if len(ref.Predicates) == 0 {
		return ref.Table.NumRows()
	}
	sel, err := relational.And(ref.Table, ref.Predicates...)
	if err != nil {
		return ref.Table.NumRows()
	}
	return len(sel)
}

// expectedHitRatio estimates how much of one input's E_µ work the shared
// store will absorb: the share of the table version's visible rows that
// its resident column chunks, or their spill slots, hold. It only peeks:
// no entry is promoted, no statistic touched. A table with no
// incarnation has no chunks and returns 0 (the executor rejects
// embedding it).
func (o *Optimizer) expectedHitRatio(n Node) float64 {
	if o.Store == nil {
		return 0
	}
	var em *Embed
	for cur := n; cur != nil; {
		switch t := cur.(type) {
		case *Embed:
			em = t
			cur = t.Input
		case *Filter:
			cur = t.Input
		default:
			cur = nil
		}
	}
	if em == nil || em.Model == nil {
		return 0
	}
	s := findScan(n)
	if s == nil || s.Ref.Table == nil || s.Ref.Table.Incarnation() == 0 {
		return 0
	}
	t := s.Ref.Table
	rows := t.NumRows()
	if s.Ref.Visible != nil {
		rows = len(s.Ref.Visible)
	}
	if rows == 0 {
		return 0
	}
	key := embstore.ChunkKey{Fingerprint: embstore.Fingerprint(em.Model), Incarnation: t.Incarnation(), Column: em.Column}
	return float64(o.Store.Resident(key, t.NumRows(), s.Ref.Visible)) / float64(rows)
}

func findScan(n Node) *Scan {
	for {
		switch t := n.(type) {
		case *Scan:
			return t
		case *Embed:
			n = t.Input
		case *Filter:
			n = t.Input
		default:
			return nil
		}
	}
}
