package mat

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ejoin/internal/vec"
)

// splitParts lays the rows of m out as parts of matrices with resident
// forms, as an embedded column's chunks are: each part of up to most
// rows sits in a matrix of its own, from a multiple of 16 rows in, with
// unrelated rows before and after it.
func splitParts(rng *rand.Rand, m *Matrix, most int) *Parts {
	var ps []Part
	for lo := 0; lo < m.Rows(); {
		n := min(1+rng.Intn(most), m.Rows()-lo)
		pad := 16 * rng.Intn(3)
		host := randomMatrix(rng, pad+n+rng.Intn(20), m.Cols())
		copy(host.Data[pad*m.Cols():], m.Data[lo*m.Cols():(lo+n)*m.Cols()])
		ps = append(ps, Part{Forms: NewForms(host), Lo: pad, Hi: pad + n})
		lo += n
	}
	s, err := NewParts(m.Cols(), ps)
	if err != nil {
		panic(err)
	}
	return s
}

// sideCells runs ScanAbove over two sides and returns the visited cells
// by row, each row's in visiting order, failing the test if a row's
// cells do not ascend in j.
func sideCells(t *testing.T, r, s Side, bound []float32, opts GemmOptions) ([]cell, ScanStats) {
	t.Helper()
	var mu sync.Mutex
	rows := make([][]cell, r.Rows())
	st, err := ScanAbove(context.Background(), r, s, bound, opts, func() ScanVisitor {
		return func(i, j int, sim float32) {
			mu.Lock()
			defer mu.Unlock()
			if n := len(rows[i]); n > 0 && rows[i][n-1].j >= j {
				t.Errorf("row %d: cell j=%d after j=%d", i, j, rows[i][n-1].j)
			}
			rows[i] = append(rows[i], cell{i, j, math.Float32bits(sim)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(rows...), st
}

// TestScanAboveOverParts holds a scan over parts with resident forms to
// the same scan over the gathered matrices, cell for cell and bit for
// bit, on every tile width: parts of 1 to 300 rows starting 0, 16 or 32
// rows into their matrices, several workers and S blocks, and bounds
// that rule most tiles out, that every cell reaches, and NaN rows. The
// parts' forms stay built and match a fresh build.
func TestScanAboveOverParts(t *testing.T) {
	eachWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(211))
		for _, c := range []struct{ nr, ns, d, most int }{
			{7, 9, 8, 5}, {64, 130, 100, 40}, {300, 200, 48, 256}, {133, 517, 100, 256}, {65, 300, 33, 17},
		} {
			r, s := randomMatrix(rng, c.nr, c.d), randomMatrix(rng, c.ns, c.d)
			r.NormalizeRows()
			s.NormalizeRows()
			rp, sp := splitParts(rng, r, c.most), splitParts(rng, s, c.most)
			for _, b := range []float32{0.35, float32(math.Inf(-1))} {
				bound := make([]float32, c.nr)
				for i := range bound {
					bound[i] = b
					if i%5 == 3 {
						bound[i] = float32(math.NaN())
					}
				}
				for _, opts := range []GemmOptions{{Threads: 1, Kernel: vec.KernelSIMD}, {Threads: 3, BlockCols: 48, Kernel: vec.KernelSIMD}, {Threads: 2}} {
					want, wst := sideCells(t, r, s, bound, opts)
					got, gst := sideCells(t, rp, sp, bound, opts)
					sameCells(t, "parts vs matrices", got, want)
					if gst.KSteps < wst.KSteps || gst.KStepsSkipped > gst.KSteps {
						t.Fatalf("%+v: parts did %+v, matrices %+v", c, gst, wst)
					}
				}
			}
			for _, p := range append(rp.parts(), sp.parts()...) {
				if err := p.Forms.Verify(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestTopKCandidatesOverParts holds the candidate top-k over parts with
// resident forms to its reference, as TestTopKCandidates does over
// matrices, with a column filter and several workers.
func TestTopKCandidatesOverParts(t *testing.T) {
	defer useCandidates(t)()
	rng := rand.New(rand.NewSource(223))
	for _, c := range []struct{ nr, ns, d, k, most int }{
		{9, 40, 32, 3, 7}, {130, 300, 100, 3, 256}, {257, 517, 100, 8, 256}, {70, 90, 64, 1, 33},
	} {
		r, s := randomMatrix(rng, c.nr, c.d), randomMatrix(rng, c.ns, c.d)
		r.NormalizeRows()
		s.NormalizeRows()
		rp, sp := splitParts(rng, r, c.most), splitParts(rng, s, c.most)
		keepRow := func(i int) bool { return i%7 != 2 }
		keepCol := func(j int) bool { return j%5 != 1 }
		for _, opts := range []GemmOptions{{Threads: 1, Kernel: vec.KernelSIMD}, {Threads: 2, BlockCols: 40, Kernel: vec.KernelSIMD}} {
			want := refTopK(r, s, c.k, keepRow, keepCol)
			got := topKOverSides(t, r, s, rp, sp, c.k, keepRow, keepCol, opts)
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%+v row %d: got %v, want %v", c, i, got[i], want[i])
				}
			}
		}
		for _, p := range append(rp.parts(), sp.parts()...) {
			if err := p.Forms.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// topKOverSides runs TopKCandidates over the sides rs and ss, the rows of
// r and s, into a consumer keeping each row's k best, and checks every
// handed cell against refDotSeq; it runs once per form of the cells the
// host has (eachCandidateForm) and fails the test unless they keep the
// same cells with the same ScanStats.
func topKOverSides(t *testing.T, r, s *Matrix, rs, ss Side, k int, keepRow, keepCol func(int) bool, opts GemmOptions) [][]cell {
	t.Helper()
	var first [][]cell
	var firstSt ScanStats
	eachCandidateForm(func(form string) {
		got, st := topKOverSidesOnce(t, r, s, rs, ss, k, keepRow, keepCol, opts)
		if first == nil {
			first, firstSt = got, st
			return
		}
		for i := range got {
			if !slices.Equal(got[i], first[i]) {
				t.Fatalf("%s cells, row %d: %v, the first form's %v", form, i, got[i], first[i])
			}
		}
		if sameTopKStats(st) != sameTopKStats(firstSt) {
			t.Fatalf("%s cells: %+v, the first form's %+v", form, st, firstSt)
		}
	})
	return first
}

func topKOverSidesOnce(t *testing.T, r, s *Matrix, rs, ss Side, k int, keepRow, keepCol func(int) bool, opts GemmOptions) ([][]cell, ScanStats) {
	t.Helper()
	got := topK{k: k, rows: make([][]cell, r.Rows())}
	bounds := make([]float32, r.Rows())
	for i := range bounds {
		bounds[i] = float32(math.Inf(-1))
		if !keepRow(i) {
			bounds[i] = float32(math.NaN())
		}
	}
	var mu sync.Mutex
	st, err := TopKCandidates(context.Background(), rs, ss, k, bounds, keepCol, opts, func() ScanVisitor {
		return func(i, j int, sim float32) {
			mu.Lock()
			defer mu.Unlock()
			if ref := refDotSeq(r.Row(i), s.Row(j)); math.Float32bits(sim) != math.Float32bits(ref) {
				t.Errorf("cell (%d,%d) = %g, refDotSeq %g", i, j, sim, ref)
			}
			got.push(cell{i, j, math.Float32bits(sim)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got.rows, st
}

// TestFormsBuiltOnceUnderConcurrentScans: scans that read the same parts
// at once, their forms not yet built, each visit the reference's cells,
// and the forms they built match a fresh build.
func TestFormsBuiltOnceUnderConcurrentScans(t *testing.T) {
	eachWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(229))
		r, s := randomMatrix(rng, 200, 100), randomMatrix(rng, 300, 100)
		r.NormalizeRows()
		s.NormalizeRows()
		rp, sp := splitParts(rng, r, 256), splitParts(rng, s, 256)
		bound := make([]float32, r.Rows())
		for i := range bound {
			bound[i] = 0.3
		}
		opts := GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}
		want, _ := sideCells(t, r, s, bound, opts)
		var wg sync.WaitGroup
		got := make([][][]cell, 6) // per scan, per row
		errs := make([]error, len(got))
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows := make([][]cell, r.Rows())
				_, errs[g] = ScanAbove(context.Background(), rp, sp, slices.Clone(bound), opts, func() ScanVisitor {
					return func(i, j int, sim float32) { rows[i] = append(rows[i], cell{i, j, math.Float32bits(sim)}) }
				})
				got[g] = rows
			}()
		}
		wg.Wait()
		for g, rows := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			sameCells(t, "concurrent scan over parts", slices.Concat(rows...), want)
		}
		for _, p := range append(rp.parts(), sp.parts()...) {
			if err := p.Forms.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestWorkerCutsAlignStrips: the workers' runs of rows cover the side in
// order, about step rows each, and each starts at a part's start or a
// multiple of 4 rows into it, so that no 4-row strip straddles two parts
// or starts off a strip of its forms.
func TestWorkerCutsAlignStrips(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	for trial := 0; trial < 200; trial++ {
		ps := make([]Part, 1+rng.Intn(6))
		starts := map[int]bool{}
		n := 0
		for i := range ps {
			ps[i] = Part{Hi: 1 + rng.Intn(40)}
			starts[n] = true
			n += ps[i].Hi
		}
		step := 4 * (1 + rng.Intn(12))
		cuts := workerCuts(ps, step)
		if cuts[0] != 0 || cuts[len(cuts)-1] != n {
			t.Fatalf("parts %v, step %d: cuts %v do not span [0,%d]", ps, step, cuts, n)
		}
		for w := 1; w < len(cuts)-1; w++ {
			at, aligned := 0, false
			for _, p := range ps {
				if off := cuts[w] - at; off >= 0 && off < p.Hi && off%4 == 0 {
					aligned = true
				}
				at += p.Hi
			}
			if cuts[w] <= cuts[w-1] || cuts[w]-cuts[w-1] < step || !aligned {
				t.Fatalf("parts %v, step %d: cut %d of %v", ps, step, w, cuts)
			}
		}
	}
}
