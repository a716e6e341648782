// Package oracle is the join's reference semantics: brute force in
// float64 over each side's visible, predicate-passing rows. Tests check
// the engine against it instead of against a second executor. It imports
// nothing of the engine (no plan, exec, core or kernels), only the model
// and the relational layer both are defined over.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"ejoin/internal/model"
	"ejoin/internal/relational"
)

// Side is one join input: a table, its TEXT join column, the MVCC
// visibility selection (nil = all rows) and the relational predicates.
type Side struct {
	Table   *relational.Table
	Text    string
	Visible relational.Selection
	Preds   []relational.Pred
}

// Spec is the join condition: K > 0 keeps each left row's K most similar
// right rows, and only pairs with similarity >= Threshold (<= -1: none).
type Spec struct {
	K         int
	Threshold float64
}

// Match is one joined pair by row id.
type Match struct {
	Left, Right int
	Sim         float64
}

// Answer holds the surviving row ids per side and every pair's similarity.
type Answer struct {
	LeftRows, RightRows []int
	spec                Spec
	sims                [][]float64 // [left position][right position]
}

// eval returns a side's surviving row ids and their unit-norm vectors.
func eval(m model.Model, s Side) ([]int, [][]float64, error) {
	sel, err := relational.And(s.Table, s.Preds...)
	if err != nil {
		return nil, nil, err
	}
	keep := relational.BitmapFromSelection(s.Table.NumRows(), sel)
	vis := s.Visible
	if vis == nil {
		vis = relational.All(s.Table.NumRows())
	}
	col, err := s.Table.Strings(s.Text)
	if err != nil {
		return nil, nil, err
	}
	var rows []int
	var vecs [][]float64
	for _, r := range vis {
		if !keep.Get(r) {
			continue
		}
		v, err := m.Embed(col[r])
		if err != nil {
			return nil, nil, err
		}
		u, norm := make([]float64, len(v)), 0.0
		for _, x := range v {
			norm += float64(x) * float64(x)
		}
		for i, x := range v {
			u[i] = float64(x) / math.Sqrt(norm)
		}
		rows, vecs = append(rows, r), append(vecs, u)
	}
	return rows, vecs, nil
}

// Join evaluates the join by brute force.
func Join(m model.Model, left, right Side, spec Spec) (*Answer, error) {
	a := &Answer{spec: spec}
	var lv, rv [][]float64
	var err error
	if a.LeftRows, lv, err = eval(m, left); err != nil {
		return nil, err
	}
	if a.RightRows, rv, err = eval(m, right); err != nil {
		return nil, err
	}
	a.sims = make([][]float64, len(lv))
	for i, x := range lv {
		a.sims[i] = make([]float64, len(rv))
		for j, y := range rv {
			for k := range x {
				a.sims[i][j] += x[k] * y[k]
			}
		}
	}
	return a, nil
}

// Check compares an engine's matches with the answer. They must be
// strictly ascending by (Left, Right), over surviving rows, with
// similarities within tol of the true ones, at most K per left row, and no
// pair may fall more than tol below the threshold. Pairs within tol of a
// bound (the threshold, a row's K-th best) may be in or out; of the pairs
// clearly above it, at least the fraction minRecall must be present.
// minRecall = 1 is an exact engine, which additionally returns nothing
// clearly below a row's K-th best and fills every row up to K.
func (a *Answer) Check(got []Match, tol, minRecall float64) error {
	pos := func(ids []int) map[int]int {
		m := make(map[int]int, len(ids))
		for p, id := range ids {
			m[id] = p
		}
		return m
	}
	lp, rp := pos(a.LeftRows), pos(a.RightRows)
	k := a.spec.K
	bound := make([]float64, len(a.LeftRows)) // what a pair of row i must reach
	atLeast := make([]int, len(a.LeftRows))   // pairs an exact engine owes row i
	must := 0
	for i, row := range a.sims {
		bound[i] = a.spec.Threshold
		if k > 0 && k <= len(row) {
			s := append([]float64(nil), row...)
			sort.Float64s(s)
			bound[i] = math.Max(bound[i], s[len(s)-k])
		}
		for _, s := range row {
			if s >= bound[i]+tol {
				must++
			}
			if s >= a.spec.Threshold+tol && (k <= 0 || atLeast[i] < k) {
				atLeast[i]++
			}
		}
	}
	found, perRow := 0, make([]int, len(a.LeftRows))
	for n, g := range got {
		i, okL := lp[g.Left]
		j, okR := rp[g.Right]
		if !okL || !okR {
			return fmt.Errorf("match %d %+v joins a row that did not survive", n, g)
		}
		if n > 0 && (got[n-1].Left > g.Left || got[n-1].Left == g.Left && got[n-1].Right >= g.Right) {
			return fmt.Errorf("match %d %+v is not after %+v in (Left, Right) order", n, g, got[n-1])
		}
		s, floor := a.sims[i][j], a.spec.Threshold
		if minRecall >= 1 {
			floor = bound[i]
		}
		if math.Abs(g.Sim-s) > tol || s < floor-tol {
			return fmt.Errorf("match %d %+v: true similarity %.6f, must reach %.6f", n, g, s, floor)
		}
		if perRow[i]++; k > 0 && perRow[i] > k {
			return fmt.Errorf("left row %d has more than k=%d matches", g.Left, k)
		}
		if s >= bound[i]+tol {
			found++
		}
	}
	if float64(found) < minRecall*float64(must) {
		return fmt.Errorf("%d of the %d pairs clearly above their bound are present, want at least %.0f%%", found, must, 100*minRecall)
	}
	for i, n := range perRow {
		if minRecall >= 1 && n < atLeast[i] {
			return fmt.Errorf("left row %d has %d matches, an exact engine owes it %d", a.LeftRows[i], n, atLeast[i])
		}
	}
	return nil
}
