package core

import (
	"context"
	"math/rand"
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/quant"
	"ejoin/internal/vec"
)

// Property-based checks over randomized shapes: the join strategies are
// rewrites of one logical operator and must agree wherever exactness is
// promised.

// TestJoinStrategiesAgreeProperty: NLJ, TensorJoin (various batchings),
// and the non-batched TensorJoinBatched produce the same match set on random inputs.
func TestJoinStrategiesAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		nr := 1 + rng.Intn(50)
		ns := 1 + rng.Intn(50)
		dim := 1 + rng.Intn(48)
		threshold := float32(rng.Float64()*1.6 - 0.8)
		left := randomEmbeddings(rng.Int63(), nr, dim)
		right := randomEmbeddings(rng.Int63(), ns, dim)

		ref, err := NLJ(ctx, left, right, threshold, Options{Threads: 1, Kernel: vec.KernelScalar})
		if err != nil {
			t.Fatal(err)
		}
		variants := []Options{
			{Kernel: vec.KernelSIMD, Threads: 3},
			{BudgetBytes: 4 * 8 * 8},
			{BatchRows: 1 + rng.Intn(nr), BatchCols: 1 + rng.Intn(ns)},
		}
		for vi, o := range variants {
			tj, err := TensorJoin(ctx, left, right, threshold, o)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMatchSets(ref.Matches, tj.Matches) {
				t.Fatalf("trial %d variant %d: tensor disagrees (%d vs %d matches, τ=%v)",
					trial, vi, len(ref.Matches), len(tj.Matches), threshold)
			}
		}
		nb, err := TensorJoinBatched(ctx, left, right, threshold, Options{BatchRows: left.Rows(), BatchCols: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatchSets(ref.Matches, nb.Matches) {
			t.Fatalf("trial %d: non-batched disagrees", trial)
		}
	}
}

func sameMatchSets(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	ka := matchKeys(a)
	for k := range matchKeys(b) {
		if _, ok := ka[k]; !ok {
			return false
		}
	}
	return true
}

// TestTopKInvariantsProperty: per left row, top-k returns exactly
// min(k, |S|) matches, each at least as similar as every non-returned
// right row.
func TestTopKInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		nr := 1 + rng.Intn(20)
		ns := 1 + rng.Intn(40)
		dim := 1 + rng.Intn(32)
		k := 1 + rng.Intn(10)
		left := randomEmbeddings(rng.Int63(), nr, dim)
		right := randomEmbeddings(rng.Int63(), ns, dim)
		res, err := TensorTopK(ctx, left, right, k, Options{BatchRows: 1 + rng.Intn(nr), BatchCols: 1 + rng.Intn(ns)})
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if ns < k {
			want = ns
		}
		perRow := map[int][]Match{}
		for _, m := range res.Matches {
			perRow[m.Left] = append(perRow[m.Left], m)
		}
		for i := 0; i < nr; i++ {
			ms := perRow[i]
			if len(ms) != want {
				t.Fatalf("trial %d row %d: %d matches, want %d", trial, i, len(ms), want)
			}
			// The worst returned similarity bounds all excluded rows.
			worst := float32(2)
			chosen := map[int]bool{}
			for _, m := range ms {
				if m.Sim < worst {
					worst = m.Sim
				}
				chosen[m.Right] = true
			}
			for j := 0; j < ns; j++ {
				if chosen[j] {
					continue
				}
				if sim := vec.Dot(vec.KernelScalar, left.Row(i), right.Row(j)); sim > worst+1e-4 {
					t.Fatalf("trial %d row %d: excluded row %d has sim %v > worst %v",
						trial, i, j, sim, worst)
				}
			}
		}
	}
}

// TestThresholdMonotonicityProperty: raising the threshold never adds
// matches, and every match set at τ₂ ⊆ matches at τ₁ for τ₁ < τ₂.
func TestThresholdMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ctx := context.Background()
	left := randomEmbeddings(80, 40, 16)
	right := randomEmbeddings(81, 40, 16)
	prev := -1.1
	var prevSet map[[2]int]float32
	for step := 0; step < 6; step++ {
		threshold := prev + rng.Float64()*0.4
		res, err := TensorJoin(ctx, left, right, float32(threshold), Options{})
		if err != nil {
			t.Fatal(err)
		}
		set := matchKeys(res.Matches)
		if prevSet != nil {
			if len(set) > len(prevSet) {
				t.Fatalf("step %d: raising threshold added matches", step)
			}
			for k := range set {
				if _, ok := prevSet[k]; !ok {
					t.Fatalf("step %d: match %v not in looser set", step, k)
				}
			}
		}
		prevSet = set
		prev = threshold
	}
}

// TestF16AgreementProperty: the FP16 join agrees with FP32 away from the
// quantization boundary on random shapes.
func TestF16AgreementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ctx := context.Background()
	for trial := 0; trial < 15; trial++ {
		nr := 1 + rng.Intn(30)
		ns := 1 + rng.Intn(30)
		dim := 1 + rng.Intn(64)
		threshold := float32(rng.Float64() - 0.5)
		left := randomEmbeddings(rng.Int63(), nr, dim)
		right := randomEmbeddings(rng.Int63(), ns, dim)
		full, err := NLJ(ctx, left, right, threshold, Options{})
		if err != nil {
			t.Fatal(err)
		}
		half, err := NLJF16(ctx, mat.EncodeF16(left), mat.EncodeF16(right), threshold, Options{})
		if err != nil {
			t.Fatal(err)
		}
		const slack = 0.02
		fullSet := matchKeys(full.Matches)
		halfSet := matchKeys(half.Matches)
		for k, sim := range fullSet {
			if sim >= threshold+slack {
				if _, ok := halfSet[k]; !ok {
					t.Fatalf("trial %d: pair %v (sim %v) lost in f16", trial, k, sim)
				}
			}
		}
		for k, sim := range halfSet {
			if sim >= threshold+slack {
				if _, ok := fullSet[k]; !ok {
					t.Fatalf("trial %d: pair %v invented by f16", trial, k)
				}
			}
		}
	}
}

// TestInt8AgreementProperty: the int8-quantized join agrees with FP32
// away from the quantization boundary on random shapes — the property
// that makes quant.Precision.DotErrorBound a safe planning input.
func TestInt8AgreementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ctx := context.Background()
	for trial := 0; trial < 15; trial++ {
		nr := 1 + rng.Intn(30)
		ns := 1 + rng.Intn(30)
		dim := 1 + rng.Intn(64)
		threshold := float32(rng.Float64() - 0.5)
		left := randomEmbeddings(rng.Int63(), nr, dim)
		right := randomEmbeddings(rng.Int63(), ns, dim)
		full, err := NLJ(ctx, left, right, threshold, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ql, qr := quant.EncodeInt8(left), quant.EncodeInt8(right)
		q8, err := NLJI8(ctx, ql, qr, threshold, Options{Threads: 1 + rng.Intn(4), Kernel: vec.Kernel(rng.Intn(2))})
		if err != nil {
			t.Fatal(err)
		}
		// The exact per-pair bound from the encoded scales covers any
		// disagreement, and the planner's static constant must dominate it
		// on this domain (dense Gaussian unit vectors) — the claim
		// Precision.DotErrorBound makes and ChooseJoinPrecision gates on.
		slack := quant.Int8DotErrorBound(dim, ql.MaxScale(), qr.MaxScale())
		if static := float32(quant.PrecisionInt8.DotErrorBound(dim)); slack > static {
			t.Fatalf("trial %d: dim %d per-pair bound %v exceeds planner constant %v on dense embeddings",
				trial, dim, slack, static)
		}
		fullSet := matchKeys(full.Matches)
		qSet := matchKeys(q8.Matches)
		for k, sim := range fullSet {
			if sim >= threshold+slack {
				if _, ok := qSet[k]; !ok {
					t.Fatalf("trial %d: pair %v (sim %v) lost in int8 (slack %v)", trial, k, sim, slack)
				}
			}
		}
		for k, sim := range qSet {
			if sim >= threshold+slack {
				if _, ok := fullSet[k]; !ok {
					t.Fatalf("trial %d: pair %v (sim %v) invented by int8", trial, k, sim)
				}
			}
		}
	}
}

// TestSelfJoinContainsDiagonalProperty: R ⋈ R at any threshold <= 1
// contains every (i, i) pair (unit vectors have self-similarity 1).
func TestSelfJoinContainsDiagonalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(60)
		dim := 1 + rng.Intn(32)
		m := randomEmbeddings(rng.Int63(), n, dim)
		res, err := TensorJoin(ctx, m, m, 0.999, Options{})
		if err != nil {
			t.Fatal(err)
		}
		diag := map[int]bool{}
		for _, match := range res.Matches {
			if match.Left == match.Right {
				diag[match.Left] = true
			}
		}
		if len(diag) != n {
			t.Fatalf("trial %d: %d of %d diagonal pairs found", trial, len(diag), n)
		}
	}
}
