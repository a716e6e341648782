package oracle

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"ejoin/internal/model"
	"ejoin/internal/relational"
)

const tol = 1e-5

// probe is a one-row left side whose vector is (1, 0).
func probe(t *testing.T) Side {
	t.Helper()
	return vectorSide(t, [][]float32{{1, 0}}, []int64{0})
}

// scored is a right side whose row j has similarity sims[j] to (1, 0), up
// to float32 rounding, and attribute value j.
func scored(t *testing.T, sims ...float64) Side {
	t.Helper()
	rows := make([][]float32, len(sims))
	attr := make([]int64, len(sims))
	for j, s := range sims {
		rows[j] = []float32{float32(s), float32(math.Sqrt(1 - s*s))}
		attr[j] = int64(j)
	}
	return vectorSide(t, rows, attr)
}

// spelled is a model whose inputs spell their embeddings: "0.6,0.8" is
// (0.6, 0.8), exactly, so a test picks every similarity it needs.
type spelled struct{}

func (spelled) Embed(s string) ([]float32, error) {
	var v []float32
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseFloat(f, 32)
		if err != nil {
			return nil, err
		}
		v = append(v, float32(x))
	}
	return v, nil
}
func (spelled) Dim() int     { return 2 }
func (spelled) Name() string { return "spelled" }

// spell renders v as the input spelled embeds back to v.
func spell(v []float32) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(float64(x), 'g', -1, 32)
	}
	return strings.Join(parts, ",")
}

// vectorSide is a side whose row j embeds, under spelled, to rows[j] and
// has attribute value attr[j].
func vectorSide(t *testing.T, rows [][]float32, attr []int64) Side {
	t.Helper()
	texts := make(relational.StringColumn, len(rows))
	for j, r := range rows {
		texts[j] = spell(r)
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "v", Type: relational.String}, {Name: "a", Type: relational.Int64}},
		[]relational.Column{texts, relational.Int64Column(attr)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return Side{Table: tbl, Text: "v"}
}

func join(t *testing.T, left, right Side, spec Spec) *Answer {
	t.Helper()
	a, err := Join(spelled{}, left, right, spec)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// pairs builds the matches of left row 0 with the given right rows, at
// their true similarities.
func pairs(a *Answer, right ...int) []Match {
	out := make([]Match, len(right))
	for n, r := range right {
		out[n] = Match{Left: 0, Right: r, Sim: a.sims[0][r]}
	}
	return out
}

func accept(t *testing.T, what string, a *Answer, got []Match, minRecall float64) {
	t.Helper()
	if err := a.Check(got, tol, minRecall); err != nil {
		t.Errorf("%s: rejected: %v", what, err)
	}
}

func reject(t *testing.T, what string, a *Answer, got []Match, minRecall float64, mention string) {
	t.Helper()
	err := a.Check(got, tol, minRecall)
	if err == nil {
		t.Errorf("%s: accepted", what)
	} else if !strings.Contains(err.Error(), mention) {
		t.Errorf("%s: error %q does not mention %q", what, err, mention)
	}
}

// TestJoinKnownAnswer: the surviving rows are the visible ones that pass
// the predicates, in row order, and every similarity is the cosine of the
// normalized vectors.
func TestJoinKnownAnswer(t *testing.T) {
	right := scored(t, 0.9, 0.6, 0.3, -0.5)
	right.Visible = relational.Selection{0, 1, 3}
	right.Preds = []relational.Pred{{Column: "a", Op: relational.GE, Value: int64(1)}}
	// An unnormalized left vector: the oracle normalizes it.
	left := vectorSide(t, [][]float32{{3, 0}}, []int64{0})
	a := join(t, left, right, Spec{Threshold: -1})
	if len(a.LeftRows) != 1 || a.LeftRows[0] != 0 {
		t.Fatalf("left rows = %v", a.LeftRows)
	}
	if len(a.RightRows) != 2 || a.RightRows[0] != 1 || a.RightRows[1] != 3 {
		t.Fatalf("right rows = %v, want [1 3] (row 2 invisible, row 0 fails a >= 1)", a.RightRows)
	}
	for j, want := range []float64{0.6, -0.5} {
		if got := a.sims[0][j]; math.Abs(got-want) > 1e-6 {
			t.Errorf("similarity to right row %d = %v, want %v", a.RightRows[j], got, want)
		}
	}
	accept(t, "the exact answer", a, []Match{{0, 1, 0.6}, {0, 3, -0.5}}, 1)
}

// TestJoinTextSideEmbedsThroughModel: a text column is embedded with the
// model and agrees with a column spelling the same embeddings.
func TestJoinTextSideEmbedsThroughModel(t *testing.T) {
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"barbecue", "database", "giraffe"}
	rows := make([][]float32, len(words))
	for i, w := range words {
		if rows[i], err = m.Embed(w); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "w", Type: relational.String}},
		[]relational.Column{relational.StringColumn(words)},
	)
	if err != nil {
		t.Fatal(err)
	}
	text := Side{Table: tbl, Text: "w"}
	vector := vectorSide(t, rows, make([]int64, len(rows)))
	byText, err := Join(m, text, text, Spec{Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	byVector := join(t, vector, vector, Spec{Threshold: -1})
	for i := range byText.sims {
		for j, s := range byText.sims[i] {
			if math.Abs(s-byVector.sims[i][j]) > 1e-12 {
				t.Fatalf("pair (%d,%d): text %v, vector %v", i, j, s, byVector.sims[i][j])
			}
		}
		if s := byText.sims[i][i]; math.Abs(s-1) > 1e-6 {
			t.Errorf("self similarity of %q = %v", words[i], s)
		}
	}
	if _, err := Join(m, Side{Table: tbl, Text: "nope"}, text, Spec{}); err == nil {
		t.Error("unknown column: no error")
	}
}

// TestCheckThresholdBand: a pair within tol of the threshold may be in or
// out; one clearly above must be in, one clearly below must be out.
func TestCheckThresholdBand(t *testing.T) {
	const thr = 0.5
	// Rows: clearly above, inside the band above, inside the band below,
	// clearly below.
	a := join(t, probe(t), scored(t, 0.8, thr+tol/4, thr-tol/4, 0.2), Spec{Threshold: thr})
	accept(t, "both band pairs", a, pairs(a, 0, 1, 2), 1)
	accept(t, "no band pair", a, pairs(a, 0), 1)
	accept(t, "the band pair above only", a, pairs(a, 0, 1), 1)
	reject(t, "a pair clearly below", a, pairs(a, 0, 3), 1, "must reach")
	reject(t, "the pair clearly above missing", a, pairs(a, 1, 2), 1, "clearly above")
}

// TestCheckKthBand: with K = 2 the bound is the row's 2nd-best similarity;
// ties within tol of it are interchangeable, anything clearly below is not.
func TestCheckKthBand(t *testing.T) {
	a := join(t, probe(t), scored(t, 0.9, 0.5, 0.5+tol/4, 0.1), Spec{K: 2, Threshold: -2})
	accept(t, "best and the 2nd best", a, pairs(a, 0, 2), 1)
	accept(t, "best and the tie", a, pairs(a, 0, 1), 1)
	reject(t, "best and a pair clearly below the 2nd best", a, pairs(a, 0, 3), 1, "must reach")
	reject(t, "only the best", a, pairs(a, 0), 1, "owes it 2")
	reject(t, "three matches", a, pairs(a, 0, 1, 2), 1, "more than k=2")
}

// TestCheckKFill: a row with fewer candidates than K is owed all of them,
// and a threshold caps what it is owed.
func TestCheckKFill(t *testing.T) {
	a := join(t, probe(t), scored(t, 0.7, -0.2), Spec{K: 3, Threshold: -2})
	accept(t, "both candidates", a, pairs(a, 0, 1), 1)
	reject(t, "one of two candidates", a, pairs(a, 0), 1, "clearly above")

	a = join(t, probe(t), scored(t, 0.9, 0.6, 0.2), Spec{K: 3, Threshold: 0.5})
	accept(t, "the two above the threshold", a, pairs(a, 0, 1), 1)
	reject(t, "one above the threshold", a, pairs(a, 0), 1, "clearly above")
	reject(t, "a candidate below the threshold", a, pairs(a, 0, 1, 2), 1, "must reach")

	// A tie at the K-th best: either tied pair may fill the row, but the
	// row is still owed K matches even though only the best is clearly in.
	a = join(t, probe(t), scored(t, 0.9, 0.5, 0.5), Spec{K: 2, Threshold: -2})
	accept(t, "best and one tied pair", a, pairs(a, 0, 2), 1)
	reject(t, "only the best", a, pairs(a, 0), 1, "owes it 2")
}

// TestCheckRecallFloor: an approximate engine must return the stated
// fraction of the pairs clearly above their bound, and nothing else is
// owed: 90 of 100 meets a 0.9 floor, 89 does not.
func TestCheckRecallFloor(t *testing.T) {
	sims := make([]float64, 100)
	for j := range sims {
		sims[j] = 0.5 + 0.004*float64(j)
	}
	a := join(t, probe(t), scored(t, sims...), Spec{Threshold: 0.3})
	all := make([]int, len(sims))
	for j := range all {
		all[j] = j
	}
	accept(t, "90 of 100 at floor 0.9", a, pairs(a, all[10:]...), 0.9)
	reject(t, "89 of 100 at floor 0.9", a, pairs(a, all[11:]...), 0.9, "want at least 90%")
	accept(t, "all 100 at floor 1", a, pairs(a, all...), 1)
	reject(t, "99 of 100 at floor 1", a, pairs(a, all[1:]...), 1, "clearly above")
}

// TestCheckSimilarityTolerance: a reported similarity may differ from the
// true one by at most tol.
func TestCheckSimilarityTolerance(t *testing.T) {
	a := join(t, probe(t), scored(t, 0.8), Spec{Threshold: 0.5})
	got := pairs(a, 0)
	got[0].Sim += tol / 2
	accept(t, "similarity off by tol/2", a, got, 1)
	got[0].Sim += tol
	reject(t, "similarity off by 1.5 tol", a, got, 1, "true similarity")
}

// TestCheckRejectsWrongAnswers is one mutation per rule of Check: each
// deliberately wrong variant of the exact answer must be rejected, and by
// the rule it breaks.
func TestCheckRejectsWrongAnswers(t *testing.T) {
	left := vectorSide(t, [][]float32{{1, 0}, {0, 1}, {-1, 0}}, []int64{0, 1, 2})
	left.Preds = []relational.Pred{{Column: "a", Op: relational.LE, Value: int64(1)}} // row 2 does not survive
	right := scored(t, 0.9, 0.7, 0.7+tol/4, 0.2, -0.4)
	a := join(t, left, right, Spec{K: 2, Threshold: 0})
	// Left row 0 is (1, 0): similarities 0.9, 0.7, 0.7+tol/4, 0.2, -0.4, so
	// right rows 1 and 2 tie for its 2nd best. Left row 1 is (0, 1):
	// similarities ≈ 0.436, 0.714, 0.714, 0.980, 0.917.
	exact := []Match{
		{0, 0, a.sims[0][0]}, {0, 1, a.sims[0][1]},
		{1, 3, a.sims[1][3]}, {1, 4, a.sims[1][4]},
	}
	accept(t, "the exact answer", a, exact, 1)

	for _, m := range []struct {
		rule      string
		minRecall float64
		mutate    func([]Match) []Match
		mention   string
	}{
		{"survival", 1, func(g []Match) []Match { return append(g, Match{2, 0, 1}) }, "did not survive"},
		{"order", 1, func(g []Match) []Match { g[2], g[3] = g[3], g[2]; return g }, "order"},
		{"uniqueness", 1, func(g []Match) []Match { return append(g[:2], g[1:]...) }, "order"},
		{"similarity", 1, func(g []Match) []Match { g[0].Sim -= 0.01; return g }, "true similarity"},
		// 0.2 clears the threshold but not row 0's 2nd best.
		{"k-th bound", 1, func(g []Match) []Match { g[1] = Match{0, 3, a.sims[0][3]}; return g }, "must reach"},
		// An approximate engine is held to the threshold only.
		{"threshold", 0.5, func(g []Match) []Match {
			return append(g[:2], append([]Match{{0, 4, a.sims[0][4]}}, g[2:]...)...)
		}, "must reach"},
		// The tied 2nd best is a third match for row 0.
		{"k", 1, func(g []Match) []Match {
			return append(g[:2], append([]Match{{0, 2, a.sims[0][2]}}, g[2:]...)...)
		}, "more than k=2"},
		{"recall", 1, func(g []Match) []Match { return g[1:] }, "clearly above"},
		// Dropping the tied 2nd best keeps every clearly-above pair.
		{"fill", 1, func(g []Match) []Match { return append(g[:1], g[2:]...) }, "owes it 2"},
	} {
		reject(t, m.rule, a, m.mutate(append([]Match(nil), exact...)), m.minRecall, m.mention)
	}
}
