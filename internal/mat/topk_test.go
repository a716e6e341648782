package mat

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// Rows keepRow leaves out get a NaN bound, the others bound(i). It runs
// once per form of the cells the host has (eachCandidateForm) and fails
// the test unless every form keeps the same cells with the same
// ScanStats.
func candidateTopK(t testing.TB, r, s *Matrix, k int, keepRow, keepCol func(int) bool, bound func(i int) float32, opts GemmOptions) ([][]cell, ScanStats) {
	t.Helper()
	var first [][]cell
	var firstSt ScanStats
	eachCandidateForm(func(form string) {
		t.Helper()
		got, st := candidateTopKOnce(t, r, s, k, keepRow, keepCol, bound, opts)
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
	return first, firstSt
}

// sameTopKStats is st without ScratchBytes, which counts the pooled
// list's capacity and so the scans run before it.
func sameTopKStats(st ScanStats) ScanStats {
	st.ScratchBytes = 0
	return st
}

// eachCandidateForm calls f with the tiles as they are and then, where
// the host has AMX, with the int8 cells switched to AMX tiles (or off
// them, if they were on): every form of TopKCandidates' cells the host
// can run.
func eachCandidateForm(f func(form string)) {
	f(topKForm())
	if haveSIMD && haveAMX && useInt8 {
		useAMX = !useAMX
		defer func() { useAMX = !useAMX }()
		f(topKForm())
	}
}

func candidateTopKOnce(t testing.TB, r, s *Matrix, k int, keepRow, keepCol func(int) bool, bound func(i int) float32, opts GemmOptions) ([][]cell, ScanStats) {
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

// useCandidates switches the tiles to ZMM with the int8 filter, its
// cells on VPDPBUSD, on every shape (candidateTopK runs the AMX form
// too), or, in a build without the assembly, the int8 filter on so that
// TopKCandidates runs on the Go forms of its kernels; it skips the test
// where the host cannot run it.
func useCandidates(t testing.TB) (restore func()) {
	t.Helper()
	if !haveSIMD {
		oldInt8, oldRows, oldCols := useInt8, int8MinRows, int8MinCols
		useInt8, int8MinRows, int8MinCols = true, 0, 0
		return func() { useInt8, int8MinRows, int8MinCols = oldInt8, oldRows, oldCols }
	}
	w := tileWidths[2]
	if w.name != "ZMM+int8" {
		t.Fatalf("tileWidths[2] is %s", w.name)
	}
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

// TestTopKCandidatesLaneBound holds the candidate top-k to the reference
// bit for bit, with the same cells and ScanStats on every form of its
// cells (candidateTopK), where the lane bound is at its edges: a row
// whose k best share one lane (columns j, j+32, j+64), a column filter
// that drops that lane's best, NaN, infinite, huge and denormal rows on
// both sides, fewer admitted columns than k, a starting bound exactly at
// the k-th best, and an S side wider than a chunk (topKChunk), whose
// near copies sit in both chunks, so that the lanes carry over, the
// first chunk's list is cut to the final kth, and the NaN rows, which
// list every column, have it re-scored before the second chunk.
func TestTopKCandidatesLaneBound(t *testing.T) {
	defer useCandidates(t)()
	rng := rand.New(rand.NewSource(313))
	const d = 100
	inf := float32(math.Inf(1))
	negInf := func(int) float32 { return -inf }
	near := func(dst, src []float32, eps float32) {
		for k := range dst {
			dst[k] = src[k] + eps*float32(rng.NormFloat64())
		}
		vec.Normalize(dst)
	}
	type hardCase struct {
		name    string
		r, s    *Matrix
		k       int
		keepCol func(int) bool
		exact   bool // start every row from its k-th best
		chunks  int  // the chunks one worker takes, if not 1
	}
	var cases []hardCase
	{
		// Row i's three nearest columns are 5+i, 37+i and 69+i: one lane.
		r, s := randomMatrix(rng, 20, d), randomMatrix(rng, 200, d)
		r.NormalizeRows()
		s.NormalizeRows()
		for i := range r.Rows() {
			for n, j := range []int{5 + i, 37 + i, 69 + i} {
				near(s.Row(j), r.Row(i), 0.05+0.05*float32(n))
			}
		}
		dropBest := func(j int) bool { return j < 5 || j >= 25 }
		cases = append(cases,
			hardCase{name: "k best in one lane", r: r, s: s, k: 3},
			hardCase{name: "k best in one lane, from the k-th best", r: r, s: s, k: 3, exact: true},
			hardCase{name: "the lane's best filtered out", r: r, s: s, k: 3, keepCol: dropBest},
			hardCase{name: "the lane's best filtered out, k 8", r: r, s: s, k: 8, keepCol: dropBest},
			hardCase{name: "two admitted columns, k 3", r: r, s: s, k: 3, keepCol: func(j int) bool { return j == 37 || j == 150 }},
			hardCase{name: "five admitted columns, k 8", r: r, s: s, k: 8, keepCol: func(j int) bool { return j%40 == 1 }},
			hardCase{name: "no admitted column", r: r, s: s, k: 1, keepCol: func(int) bool { return false }},
		)
	}
	{
		// Rows the estimates do not cover, on both sides.
		r, s := randomMatrix(rng, 24, d), randomMatrix(rng, 96, d)
		r.NormalizeRows()
		s.NormalizeRows()
		odd := func(row []float32, n int) {
			switch n % 6 {
			case 0:
				row[7] = float32(math.NaN())
			case 1:
				row[3] = inf
			case 2:
				row[4] = -inf
			case 3:
				for k := range row {
					row[k] *= 0x1p60
				}
			case 4:
				for k := range row {
					row[k] = 0x1p-140 * float32(1+k%5)
				}
			}
		}
		for i := 0; i < r.Rows(); i += 2 {
			odd(r.Row(i), i/2)
		}
		for j := 1; j < s.Rows(); j += 3 {
			odd(s.Row(j), j/3)
		}
		cases = append(cases,
			hardCase{name: "NaN, infinite, huge and denormal rows", r: r, s: s, k: 3},
			hardCase{name: "NaN, infinite, huge and denormal rows, from the k-th best", r: r, s: s, k: 3, exact: true},
		)
	}
	{
		// Wider than a chunk: each row's near copies straddle its edge,
		// and rows 0..19 hold a NaN, so that they list every column.
		r, s := randomMatrix(rng, 40, d), randomMatrix(rng, topKChunk+100, d)
		r.NormalizeRows()
		s.NormalizeRows()
		for i := range r.Rows() {
			near(s.Row(3*i), r.Row(i), 0.3)
			near(s.Row(topKChunk-1-i), r.Row(i), 0.2)
			near(s.Row(topKChunk+2*i), r.Row(i), 0.1)
		}
		for i := range 20 {
			r.Row(i)[i] = float32(math.NaN())
		}
		cases = append(cases,
			hardCase{name: "wider than a chunk", r: r, s: s, k: 3, chunks: 2},
			hardCase{name: "wider than a chunk, filtered", r: r, s: s, k: 2, keepCol: func(j int) bool { return j%3 != 0 }, chunks: 2},
		)
	}
	for _, c := range cases {
		want := refTopK(c.r, c.s, c.k, nil, c.keepCol)
		bound := negInf
		if c.exact {
			bound = func(i int) float32 {
				if len(want[i]) < c.k {
					return -inf
				}
				return math.Float32frombits(want[i][c.k-1].bits)
			}
		}
		for _, threads := range []int{1, 2} {
			got, st := candidateTopK(t, c.r, c.s, c.k, nil, c.keepCol, bound, GemmOptions{Threads: threads, Kernel: vec.KernelSIMD})
			for i := range want {
				sameCells(t, fmt.Sprintf("%s, threads %d, row %d", c.name, threads, i), got[i], want[i])
			}
			if chunks := max(c.chunks, 1); st.Blocks != chunks {
				t.Errorf("%s, threads %d: %d chunks, want %d", c.name, threads, st.Blocks, chunks)
			}
		}
	}
}

// TestTopKCandidatesCancelled: a cancelled context stops every worker
// before its first group and visits nothing.
func TestTopKCandidatesCancelled(t *testing.T) {
	defer useCandidates(t)()
	rng := rand.New(rand.NewSource(17))
	r, s := randomMatrix(rng, 40, 64), randomMatrix(rng, 70, 64)
	bound := make([]float32, r.Rows())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, threads := range []int{1, 2} {
		visited := 0
		_, err := TopKCandidates(ctx, r, s, 3, bound, nil, GemmOptions{Threads: threads, Kernel: vec.KernelSIMD}, func() ScanVisitor {
			return func(int, int, float32) { visited++ }
		})
		if !errors.Is(err, context.Canceled) || visited != 0 {
			t.Errorf("threads %d: cancelled top-k returned %v after %d cells", threads, err, visited)
		}
	}
}

// TestDotPairsMatchesGo holds dotPairs to dotPairsGo, and so to dotSeq,
// bit for bit: d across the 16-step blocks and their tail, 1 to 16
// cells, rows shared between lanes, and elements that make zero
// products of either sign, infinities, NaN and denormals.
func TestDotPairsMatchesGo(t *testing.T) {
	if !haveSIMD || !haveAVX512 {
		t.Skip("no AVX-512F on this host or in this build, so no dotPairs")
	}
	rng := rand.New(rand.NewSource(29))
	for _, d := range []int{1, 15, 16, 17, 31, 32, 33, 100, 128, 300} {
		r, s := randomMatrix(rng, 20, d), randomMatrix(rng, 30, d)
		for k := range r.Data {
			switch rng.Intn(40) {
			case 0:
				r.Data[k] = 0
			case 1:
				r.Data[k] = float32(math.Copysign(0, -1))
			case 2:
				r.Data[k] = 0x1p-140
			case 3:
				s.Data[k%len(s.Data)] = float32(math.Inf(1 - 2*rng.Intn(2)))
			case 4:
				s.Data[k%len(s.Data)] = float32(math.NaN())
			}
		}
		for n := 1; n <= 16; n++ {
			var ri, sj [16]int32
			for l := range n {
				ri[l], sj[l] = int32(rng.Intn(r.Rows())*d), int32(rng.Intn(s.Rows())*d)
			}
			var got, want [16]float32
			dotPairs(&got[0], &r.Data[0], &s.Data[0], &ri[0], &sj[0], d, n)
			dotPairsGo(want[:], r.Data, s.Data, ri[:], sj[:], d, n)
			for l := range 16 {
				if l < n && math.Float32bits(got[l]) != math.Float32bits(want[l]) && !(got[l] != got[l] && want[l] != want[l]) || l >= n && got[l] != 0 {
					t.Fatalf("d %d, %d cells: lane %d is %g (%#08x), want %g (%#08x)", d, n, l, got[l], math.Float32bits(got[l]), want[l], math.Float32bits(want[l]))
				}
			}
		}
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
// rows (plantedRows), one thread, from bounds of -Inf, once per form of
// the cells the host has (VPDPBUSD, AMX): ns/pair per compared pair,
// skipped the share of the F32 k-steps not run, and rescored/row the
// cells computed in F32 a row.
func BenchmarkTopKCandidates(b *testing.B) {
	defer useCandidates(b)()
	r, s := plantedRows(1024, 100, 300)
	bound := make([]float32, r.Rows())
	for i := range bound {
		bound[i] = float32(math.Inf(-1))
	}
	none := func() ScanVisitor { return func(int, int, float32) {} }
	eachCandidateForm(func(form string) {
		b.Run(form, func(b *testing.B) {
			var st ScanStats
			for b.Loop() {
				var err error
				if st, err = TopKCandidates(context.Background(), r, s, 3, bound, nil, GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}, none); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Rows()*s.Rows()), "ns/pair")
			b.ReportMetric(float64(st.KStepsSkipped)/float64(st.KSteps), "skipped")
			b.ReportMetric(float64(st.Rescored)/float64(r.Rows()), "rescored/row")
		})
	})
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
