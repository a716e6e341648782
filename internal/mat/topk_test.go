package mat

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

// refTopK is TopKCandidates' reference: for each row keepRow keeps, the
// k best non-NaN refDotSeq cells of the columns keepCol keeps, ties to
// the lower j, pushed in (i, j) order.
func refTopK(r, s *Matrix, k int, keepRow, keepCol func(int) bool) [][]cell {
	want := topK{k: k, rows: make([][]cell, r.Rows())}
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < s.Rows(); j++ {
			if keepRow != nil && !keepRow(i) || keepCol != nil && !keepCol(j) {
				continue
			}
			if sim := refDotSeq(r.Row(i), s.Row(j)); sim == sim {
				want.push(cell{i, j, math.Float32bits(sim)})
			}
		}
	}
	return want.rows
}

// candidateTopK runs TopKCandidates into a consumer that keeps each
// row's k best of what it is handed, ties to the earlier arrival, and
// fails the test unless every handed cell is a kept row's and column's,
// not NaN, refDotSeq's bits, and after the row's previous cell in j.
// Rows keepRow leaves out get a NaN bound, the others bound(i).
func candidateTopK(t testing.TB, r, s *Matrix, k int, keepRow, keepCol func(int) bool, bound func(i int) float32, opts GemmOptions) ([][]cell, ScanStats) {
	t.Helper()
	got := topK{k: k, rows: make([][]cell, r.Rows())}
	last := make([]int, r.Rows())
	for i := range last {
		last[i] = -1
	}
	bounds := make([]float32, r.Rows())
	for i := range bounds {
		bounds[i] = bound(i)
		if keepRow != nil && !keepRow(i) {
			bounds[i] = float32(math.NaN())
		}
	}
	var bad error
	st, err := TopKCandidates(context.Background(), r, s, k, bounds, keepCol, opts, func() ScanVisitor {
		return func(i, j int, sim float32) {
			switch ref := refDotSeq(r.Row(i), s.Row(j)); {
			case bad != nil:
			case keepRow != nil && !keepRow(i) || keepCol != nil && !keepCol(j):
				bad = fmt.Errorf("cell (%d,%d) of a row or column not kept", i, j)
			case j <= last[i]:
				bad = fmt.Errorf("row %d: column %d after %d", i, j, last[i])
			case math.Float32bits(sim) != math.Float32bits(ref):
				bad = fmt.Errorf("cell (%d,%d) = %g, refDotSeq %g", i, j, sim, ref)
			}
			last[i] = j
			got.push(cell{i, j, math.Float32bits(sim)})
		}
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(r.Rows()) * int64((s.Rows()+panelCols-1)/panelCols) * int64(r.Cols()); st.KSteps != want || st.KStepsSkipped < 0 || st.KStepsSkipped > want {
		t.Fatalf("%d k-steps, %d skipped; want %d k-steps", st.KSteps, st.KStepsSkipped, want)
	}
	return got.rows, st
}

// useCandidates switches the tiles to ZMM with the int8 filter on every
// shape, or skips the test where the host cannot run it.
func useCandidates(t testing.TB) (restore func()) {
	t.Helper()
	w := tileWidths[len(tileWidths)-1]
	if why := w.missing(); why != "" {
		t.Skip(why)
	}
	return w.use()
}

// TestTopKCandidates holds the candidate top-k to the reference bit for
// bit: shapes around a 4-row strip, a 16-column panel and a 32-column
// int8 tile, k from 1 to more than |S|, tied columns, rows the int8
// estimates do not cover (NaN, infinite, beyond 2^40, below 2^-40,
// denormal) and zero rows on both sides, both filters, several workers
// and S blocks, and starting bounds of -Inf and of exactly each row's
// k-th best; and it checks that random unit rows re-score few cells.
func TestTopKCandidates(t *testing.T) {
	defer useCandidates(t)()
	rng := rand.New(rand.NewSource(101))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, d := range []int{32, 33, 100} {
		for _, shape := range [][2]int{{1, 1}, {3, 40}, {5, 17}, {9, 33}, {13, 64}, {67, 130}} {
			nr, ns := shape[0], shape[1]
			r, s := randomMatrix(rng, nr, d), randomMatrix(rng, ns, d)
			r.NormalizeRows()
			s.NormalizeRows()
			odd := func(m *Matrix, n int) {
				switch row := m.Row(n); n % 7 {
				case 0:
					row[d/2] = nan
				case 1:
					row[1] = -inf
				case 2:
					for k := range row {
						row[k] *= 0x1p41
					}
				case 3:
					for k := range row {
						row[k] *= 0x1p-45
					}
				case 4:
					for k := range row {
						row[k] = 0x1p-140 * float32(k%3)
					}
				case 5:
					clear(row)
				case 6:
					copy(row, m.Row(0))
				}
			}
			for n := 1; n < nr; n += 2 {
				odd(r, n)
			}
			for n := 2; n < ns; n += 3 {
				odd(s, n)
			}
			if ns > 20 {
				copy(s.Row(ns-1), s.Row(4)) // a tie the earlier column wins
			}
			keepRow := func(i int) bool { return i%5 != 3 }
			keepCol := func(j int) bool { return j%4 != 1 }
			for _, k := range []int{1, 3, min(ns+2, topKMaxK)} {
				for _, filtered := range []bool{false, true} {
					kr, kc := keepRow, keepCol
					if !filtered {
						kr, kc = nil, nil
					}
					want := refTopK(r, s, k, kr, kc)
					kth := func(i int) float32 {
						if len(want[i]) < k {
							return float32(math.Inf(-1))
						}
						return math.Float32frombits(want[i][k-1].bits)
					}
					for n, opts := range []GemmOptions{
						{Threads: 1, Kernel: vec.KernelSIMD, BlockCols: 32},
						{Threads: 3, Kernel: vec.KernelSIMD, BlockRows: 4, BlockCols: 40},
					} {
						bound := func(int) float32 { return float32(math.Inf(-1)) }
						if n == 1 {
							bound = kth
						}
						got, _ := candidateTopK(t, r, s, k, kr, kc, bound, opts)
						for i := range want {
							sameCells(t, fmt.Sprintf("d %d, %dx%d, k %d, filtered %v, threads %d, row %d", d, nr, ns, k, filtered, opts.Threads, i), got[i], want[i])
						}
					}
				}
			}
		}
	}

	// Random unit rows: the sweep leaves a few cells a row.
	r, s := randomMatrix(rng, 64, 100), randomMatrix(rng, 512, 100)
	r.NormalizeRows()
	s.NormalizeRows()
	got, st := candidateTopK(t, r, s, 3, nil, nil, func(int) float32 { return float32(math.Inf(-1)) }, GemmOptions{Threads: 1, Kernel: vec.KernelSIMD})
	want := refTopK(r, s, 3, nil, nil)
	for i := range want {
		sameCells(t, fmt.Sprintf("unit rows, row %d", i), got[i], want[i])
	}
	if share := float64(st.KStepsSkipped) / float64(st.KSteps); share < 0.9 {
		t.Errorf("unit rows: %.3f of the k-steps skipped, want most", share)
	}
}

// TestTopKCandidatesOn pins where the candidate top-k runs: with the
// SIMD kernel, k from 1 to topKMaxK, and every worker at or above the
// int8 filter's floors.
func TestTopKCandidatesOn(t *testing.T) {
	if !haveVNNI {
		t.Skip("no AVX-512 VNNI on this host, so no int8 top-k")
	}
	simd := GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}
	for _, c := range []struct {
		nr, ns, d, k int
		opts         GemmOptions
		want         bool
	}{
		{1024, 1024, 100, 3, simd, true},
		{int8MinRows, int8MinCols, int8MinDim, 1, simd, true},
		{int8MinRows, int8MinCols, int8MaxDim, topKMaxK, simd, true},
		{int8MinRows - 1, 1024, 100, 3, simd, false},
		{1024, int8MinCols - 1, 100, 3, simd, false},
		{1024, 1024, int8MinDim - 1, 3, simd, false},
		{1024, 1024, int8MaxDim + 1, 3, simd, false},
		{1024, 1024, 100, 0, simd, false},
		{1024, 1024, 100, topKMaxK + 1, simd, false},
		{1024, 1024, 100, 3, GemmOptions{Threads: 1, Kernel: vec.KernelScalar}, false},
		{1024, 1024, 100, 3, GemmOptions{Threads: 2, Kernel: vec.KernelSIMD}, true},
		// Three workers of 64 and one of 2: the last is below the floor.
		{194, 1024, 100, 3, GemmOptions{Threads: 4, Kernel: vec.KernelSIMD}, false},
	} {
		if got := TopKCandidatesOn(c.nr, c.ns, c.d, c.k, c.opts); got != c.want {
			t.Errorf("%dx%d rows of %d, k %d, %+v: %v, want %v", c.nr, c.ns, c.d, c.k, c.opts, got, c.want)
		}
	}
}

// BenchmarkTopKCandidates times the candidate top-3 on BenchmarkScanAbove's
// rows (plantedRows), one thread, from bounds of -Inf: ns/pair per
// compared pair, and skipped the share of the F32 k-steps not run.
func BenchmarkTopKCandidates(b *testing.B) {
	defer useCandidates(b)()
	r, s := plantedRows(1024, 100, 300)
	bound := make([]float32, r.Rows())
	for i := range bound {
		bound[i] = float32(math.Inf(-1))
	}
	none := func() ScanVisitor { return func(int, int, float32) {} }
	var st ScanStats
	for b.Loop() {
		var err error
		if st, err = TopKCandidates(context.Background(), r, s, 3, bound, nil, GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}, none); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Rows()*s.Rows()), "ns/pair")
	b.ReportMetric(float64(st.KStepsSkipped)/float64(st.KSteps), "skipped")
}

// FuzzTopKCandidatesEqualsReference holds the candidate top-k to the
// reference on rows of raw float32 bit patterns (NaN, infinities,
// denormals and huge values included) walked out of arbitrary bytes, as
// FuzzScanAboveEqualsReference builds them, with the int8 floors lowered
// to every shape: k from 1 to 8, one or two workers, S blocks of one to
// three tiles, every fifth row left out by a NaN bound and every third
// starting from its exact k-th best.
func FuzzTopKCandidatesEqualsReference(f *testing.F) {
	f.Add(uint8(5), uint8(40), uint8(0), uint8(2), []byte{0, 0, 128, 63, 0, 0, 0, 192, 205, 204, 76, 62})
	f.Add(uint8(9), uint8(33), uint8(68), uint8(0), []byte{1, 0, 0, 0, 0, 0, 128, 127, 255, 255, 127, 127, 0, 0, 128, 255})
	f.Add(uint8(21), uint8(70), uint8(1), uint8(7), []byte{219, 15, 73, 64, 84, 248, 45, 192, 0, 0, 192, 127, 3})
	f.Add(uint8(4), uint8(3), uint8(99), uint8(5), []byte{0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 128, 255})
	f.Fuzz(func(t *testing.T, nr, ns, d, k uint8, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		defer useCandidates(t)()
		word := 0
		fill := func(rows, cols int) *Matrix {
			m := New(rows, cols)
			for i := range m.Data {
				off := word % (len(data) - 3)
				word += 3
				m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
			}
			return m
		}
		r, s := fill(1+int(nr)%40, 32+int(d)%100), fill(1+int(ns)%70, 32+int(d)%100)
		kk := 1 + int(k)%topKMaxK
		want := refTopK(r, s, kk, nil, nil)
		bound := func(i int) float32 {
			switch {
			case i%5 == 4:
				return float32(math.NaN())
			case i%3 == 1 && len(want[i]) == kk:
				return math.Float32frombits(want[i][kk-1].bits)
			}
			return float32(math.Inf(-1))
		}
		opts := GemmOptions{Threads: 1 + int(k)%2, Kernel: vec.KernelSIMD, BlockRows: 8, BlockCols: 32 * (1 + int(nr)%3)}
		got, _ := candidateTopK(t, r, s, kk, nil, nil, bound, opts)
		for i := range want {
			if bound(i) != bound(i) {
				want[i] = nil
			}
			sameCells(t, fmt.Sprintf("row %d", i), got[i], want[i])
		}
	})
}
