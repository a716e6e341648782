package mat

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ejoin/internal/vec"
)

// cell is one visited (i, j, sim).
type cell struct {
	i, j int
	bits uint32
}

// refScan is the scan contract's reference: the cells whose dotSeq
// similarity reaches the row's bound, in (i, j) order.
func refScan(r, s *Matrix, bound []float32) []cell {
	var out []cell
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < s.Rows(); j++ {
			if sim := dotSeq(r.Row(i), s.Row(j)); sim >= bound[i] {
				out = append(out, cell{i, j, math.Float32bits(sim)})
			}
		}
	}
	return out
}

// scanCells runs ScanAbove and returns the visited cells grouped by row
// (each row's cells in visiting order, rows ascending). It fails the test
// if a row's cells do not arrive in ascending j or from two workers.
func scanCells(t *testing.T, r, s *Matrix, bound []float32, opts GemmOptions) []cell {
	t.Helper()
	var mu sync.Mutex
	rows := make([][]cell, r.Rows())
	owner := make([]int, r.Rows())
	workers := 0
	_, err := ScanAbove(context.Background(), r, s, bound, opts, func() ScanVisitor {
		workers++
		w := workers
		return func(i, j int, sim float32) {
			mu.Lock()
			defer mu.Unlock()
			if n := len(rows[i]); n > 0 && (rows[i][n-1].j >= j || owner[i] != w) {
				t.Errorf("row %d: cell j=%d (worker %d) after j=%d (worker %d)", i, j, w, rows[i][n-1].j, owner[i])
			}
			owner[i] = w
			rows[i] = append(rows[i], cell{i, j, math.Float32bits(sim)})
		}
	})
	if workers > max(1, opts.Threads) {
		t.Errorf("%d workers for %d threads", workers, opts.Threads)
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []cell
	for _, row := range rows {
		out = append(out, row...)
	}
	return out
}

func sameCells(t *testing.T, label string, got, want []cell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: visited %d cells, want %d", label, len(got), len(want))
	}
	for n := range want {
		if got[n] != want[n] {
			t.Fatalf("%s: cell %d is (%d,%d,%#08x), want (%d,%d,%#08x)", label, n,
				got[n].i, got[n].j, got[n].bits, want[n].i, want[n].j, want[n].bits)
		}
	}
}

// TestScanAboveShapes straddles every edge of the fused driver — the
// 4-row tile and its 1-3 remainder rows, the 16-column panel and its
// zero-padded tail, the S block, and every checkpoint count of the tile
// from none (d < 32) to five — with bounds no similarity reaches, every
// similarity reaches, and that sit exactly on one.
func TestScanAboveShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	negZero := float32(math.Copysign(0, -1))
	for nr := 0; nr <= 9; nr++ {
		for _, ns := range []int{1, 15, 16, 17, 63, 64, 65, 1000} {
			for _, d := range []int{0, 1, 15, 16, 17, 31, 32, 33, 48, 100, 101} {
				r, s := randomMatrix(rng, nr, d), randomMatrix(rng, ns, d)
				if d > 16 {
					// Unit norms, so that bounds near a similarity are
					// also near what a tile's suffix can still add.
					r.NormalizeRows()
					s.NormalizeRows()
				}
				if nr > 2 && d > 0 {
					clear(r.Row(2)) // a row of exact zero similarities
				}
				bound := make([]float32, nr)
				for i := range bound {
					on := dotSeq(r.Row(i), s.Row(ns/2))
					bound[i] = []float32{on, float32(math.Inf(-1)), negZero, float32(math.Inf(1)), 0,
						math.Nextafter32(on, 2), float32(math.NaN())}[(i+nr)%7]
				}
				want := refScan(r, s, bound)
				for _, k := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
					for _, opts := range []GemmOptions{
						{Threads: 1, Kernel: k},
						{Threads: 2, Kernel: k, BlockRows: 4, BlockCols: 16},
					} {
						sameCells(t, "scan", scanCells(t, r, s, bound, opts), want)
					}
				}
			}
		}
	}
}

// earlyExitCase is one input built against the tile's early exit.
type earlyExitCase struct {
	name  string
	r, s  *Matrix
	bound []float32
}

// earlyExitCases would each be answered wrongly by a checkpoint that
// compared unordered, dropped its rounding slack, or trusted a norm that
// overflowed. d is 32 or more, so every 4-row tile has a checkpoint.
func earlyExitCases() []earlyExitCase {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	// fill builds rows x d with every row a copy of the given components
	// (the rest zero), so all 64 cells of a tile agree.
	fill := func(rows, d int, at map[int]float32) *Matrix {
		m := New(rows, d)
		for i := 0; i < rows; i++ {
			for k, v := range at {
				m.Row(i)[k] = v
			}
		}
		return m
	}
	bounds := func(n int, b ...float32) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = b[i%len(b)]
		}
		return out
	}

	// Every add of 1.5 to 2^24+2 rounds up to a gain of 2: the sum ends
	// 32 above the checkpoint's partial sum although the 16 remaining
	// products only sum to 24. Only the rounding slack keeps the tile.
	rAt, sAt := map[int]float32{0: 1<<24 + 2}, map[int]float32{0: 1}
	for k := 16; k < 32; k++ {
		rAt[k], sAt[k] = 1.5, 1
	}
	cases := []earlyExitCase{{"rounding beats Cauchy-Schwarz", fill(8, 32, rAt), fill(32, 32, sAt), bounds(8, 1<<24+30)}}

	// The partial sum is -Inf and the suffix norm +Inf, so the estimate
	// is NaN; the result is -Inf, which a bound of -Inf admits.
	cases = append(cases, earlyExitCase{"NaN estimate under a -Inf bound",
		fill(8, 48, map[int]float32{0: -inf, 40: 1}), fill(20, 48, map[int]float32{0: 1, 40: 1}), bounds(8, -inf)})

	// Squares beyond float32: the factor must come out +Inf, not wrap.
	cases = append(cases, earlyExitCase{"suffix norm overflows",
		fill(4, 40, map[int]float32{3: 1, 35: 3e38, 36: 3e38}), fill(16, 40, map[int]float32{3: 1, 35: 1e-38}), bounds(4, 2)})

	// Large products cancel before the checkpoint and a small tail
	// decides: the partial sum says nothing about the rows' scale.
	cases = append(cases, earlyExitCase{"prefix cancels",
		fill(8, 64, map[int]float32{0: 3e18, 1: -3e18, 50: 0.75, 63: 0.5}),
		fill(33, 64, map[int]float32{0: 1e18, 1: 1e18, 50: 1, 63: 1}), bounds(8, 1.25)})

	// Nothing left after k = 16: the partial sum is already the result
	// and sits exactly on, one ulp under and one ulp over the bound.
	r, s := fill(12, 100, map[int]float32{2: 0.6, 9: 0.8}), fill(40, 100, map[int]float32{2: 0.6, 9: 0.8})
	on := dotSeq(r.Row(0), s.Row(0))
	cases = append(cases, earlyExitCase{"zero suffix on the bound", r, s,
		bounds(12, on, math.Nextafter32(on, 2), math.Nextafter32(on, -2))})

	// Infinite and NaN components late in the rows, with every kind of
	// bound beside them in one strip.
	r, s = fill(8, 100, map[int]float32{5: 1}), fill(24, 100, map[int]float32{5: 1, 90: 1})
	r.Row(1)[90], r.Row(2)[90], r.Row(3)[90] = inf, -inf, nan
	s.Row(7)[95], s.Row(8)[95] = nan, inf
	return append(cases, earlyExitCase{"non-finite components", r, s, []float32{-inf, inf, -inf, 0.5, 2, -inf, nan, 1}})
}

// TestScanAboveEarlyExit holds the checkpointed tile to the reference on
// inputs built to mislead it, and checks that it does stop on easy ones.
func TestScanAboveEarlyExit(t *testing.T) {
	for _, c := range earlyExitCases() {
		want := refScan(c.r, c.s, c.bound)
		for _, opts := range []GemmOptions{
			{Threads: 1, Kernel: vec.KernelSIMD},
			{Threads: 2, Kernel: vec.KernelSIMD, BlockRows: 4, BlockCols: 16},
			{Threads: 1, Kernel: vec.KernelScalar},
		} {
			sameCells(t, c.name, scanCells(t, c.r, c.s, c.bound, opts), want)
		}
	}

	// Unit-norm rows of 100 against a bound few pairs reach: most tiles
	// of the assembly kernel stop, the portable kernels run every step,
	// and a strip whose bounds are all NaN is skipped by both.
	rng := rand.New(rand.NewSource(71))
	r, s := randomMatrix(rng, 64, 100), randomMatrix(rng, 200, 100)
	r.NormalizeRows()
	s.NormalizeRows()
	bound := make([]float32, r.Rows())
	for i := range bound {
		bound[i] = 0.8
	}
	none := func() ScanVisitor { return func(int, int, float32) {} }
	for _, k := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
		st, err := ScanAbove(context.Background(), r, s, bound, GemmOptions{Threads: 1, Kernel: k}, none)
		if err != nil {
			t.Fatal(err)
		}
		stops := k == vec.KernelSIMD && haveSIMD
		if st.KSteps != 64*13*100 || stops != (st.KStepsSkipped > st.KSteps/4) || !stops && st.KStepsSkipped != 0 {
			t.Errorf("kernel %v: %d of %d k-steps skipped", k, st.KStepsSkipped, st.KSteps)
		}
		nanBound := append([]float32(nil), bound...)
		for i := 8; i < 16; i++ {
			nanBound[i] = float32(math.NaN())
		}
		withNaN, err := ScanAbove(context.Background(), r, s, nanBound, GemmOptions{Threads: 1, Kernel: k}, none)
		if err != nil {
			t.Fatal(err)
		}
		if min := st.KStepsSkipped/64*56 + 8*13*100; withNaN.KStepsSkipped < min-min/10 {
			t.Errorf("kernel %v: %d k-steps skipped with two NaN strips, want about %d", k, withNaN.KStepsSkipped, min)
		}
		// A NaN bound in a strip with live rows must not hold its tiles.
		for i := range nanBound {
			nanBound[i] = bound[i]
			if i%2 == 0 {
				nanBound[i] = float32(math.NaN())
			}
		}
		mixed, err := ScanAbove(context.Background(), r, s, nanBound, GemmOptions{Threads: 1, Kernel: k}, none)
		if err != nil {
			t.Fatal(err)
		}
		if stops != (mixed.KStepsSkipped > st.KSteps/4) {
			t.Errorf("kernel %v: %d of %d k-steps skipped with a NaN bound in every strip", k, mixed.KStepsSkipped, st.KSteps)
		}
	}
}

// TestSuffixFactors holds the assembly's factors to their definition,
// computed in float64: never below what the package doc's argument needs
// (|row[k:]| in full, 3/4 of the rounding term, half the floor — less
// would let a tile stop wrongly), within 1e-5 above the definition (or
// the early exit stops paying), and at the panel layout's position,
// lanes past the last row repeating it.
func TestSuffixFactors(t *testing.T) {
	if !haveSIMD {
		t.Skip("no assembly kernel on this build or host")
	}
	rng := rand.New(rand.NewSource(73))
	norm := func(v []float32) float64 {
		var sq float64
		for _, x := range v {
			sq += float64(x) * float64(x)
		}
		return math.Sqrt(sq)
	}
	for _, d := range []int{32, 33, 47, 48, 100, 101, 129} {
		for _, rows := range []int{1, 4, 5, 16, 21} {
			m := randomMatrix(rng, rows+2, d)
			for i := range m.Row(1) {
				m.Row(1)[i] *= 1e-30 // squares underflow
			}
			nc, lo, hi := checkpoints(d), 1, rows+1
			out := make([]float32, (rows+15)/16*16*nc)
			suffixFactors(out, m, lo, hi)
			for lane := 0; lane < len(out)/nc; lane++ {
				row := m.Row(min(lo+lane, hi-1))
				for c := 1; c <= nc; c++ {
					sfx, slack := norm(row[16*c:]), math.Sqrt(float64(d)*0x1p-23)*norm(row)
					got := float64(out[factorAt(nc, lane, c)])
					if got < sfx+0.75*slack+0x1p-61 || got > (sfx+slack+0x1p-60)*(1+1e-5) {
						t.Fatalf("d %d, %d rows, lane %d, checkpoint %d: factor %g for suffix norm %g, slack %g", d, rows, lane, c, got, sfx, slack)
					}
				}
			}
		}
	}
}

// TestScanAboveStatsAndErrors pins what the consumers report from the
// scan: S blocks walked, scratch that does not grow with |R|x|S|, and
// the argument and cancellation errors.
func TestScanAboveStatsAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	r, s := randomMatrix(rng, 300, 8), randomMatrix(rng, 200, 8)
	bound := make([]float32, r.Rows())
	none := func() ScanVisitor { return func(int, int, float32) {} }
	st, err := ScanAbove(context.Background(), r, s, bound, GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}, none)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 4 || st.ScratchBytes > 64*8*4+256 {
		t.Errorf("stats = %+v, want 4 blocks and at most one packed block plus a tile", st)
	}
	if _, err := ScanAbove(context.Background(), r, randomMatrix(rng, 3, 9), bound, GemmOptions{}, none); err == nil {
		t.Error("inner dimension mismatch accepted")
	}
	if _, err := ScanAbove(context.Background(), r, s, bound[1:], GemmOptions{}, none); err == nil {
		t.Error("short bound slice accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, threads := range []int{1, 2} {
		if _, err := ScanAbove(ctx, r, s, bound, GemmOptions{Threads: threads}, none); !errors.Is(err, context.Canceled) {
			t.Errorf("threads %d: cancelled scan returned %v", threads, err)
		}
	}
}

// topK is a minimal raising consumer: per row the k best (sim, j), best
// first, ties keeping the earlier arrival.
type topK struct {
	k    int
	rows [][]cell
}

func (h *topK) push(c cell) {
	row := h.rows[c.i]
	sim := math.Float32frombits(c.bits)
	if len(row) == h.k && sim <= math.Float32frombits(row[h.k-1].bits) {
		return
	}
	pos := len(row)
	for pos > 0 && math.Float32frombits(row[pos-1].bits) < sim {
		pos--
	}
	row = append(row, cell{})
	copy(row[pos+1:], row[pos:])
	row[pos] = c
	h.rows[c.i] = row[:min(len(row), h.k)]
}

// checkRaisedBounds runs a top-k consumer that raises each row's bound to
// its k-th best as it goes, and holds the result to the materializing
// form: every non-NaN cell of the full product pushed in (i, j) order.
func checkRaisedBounds(t *testing.T, r, s *Matrix, k int, opts GemmOptions) {
	t.Helper()
	want := topK{k: k, rows: make([][]cell, r.Rows())}
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < s.Rows(); j++ {
			if sim := dotSeq(r.Row(i), s.Row(j)); sim == sim {
				want.push(cell{i, j, math.Float32bits(sim)})
			}
		}
	}
	got := topK{k: k, rows: make([][]cell, r.Rows())}
	bound := make([]float32, r.Rows())
	for i := range bound {
		bound[i] = float32(math.Inf(-1))
	}
	_, err := ScanAbove(context.Background(), r, s, bound, opts, func() ScanVisitor {
		return func(i, j int, sim float32) {
			got.push(cell{i, j, math.Float32bits(sim)})
			if row := got.rows[i]; len(row) == k {
				bound[i] = math.Float32frombits(row[k-1].bits)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.rows {
		sameCells(t, "top-k row", got.rows[i], want.rows[i])
	}
}

func TestScanAboveRaisedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	r, s := randomMatrix(rng, 23, 9), randomMatrix(rng, 150, 9)
	copy(s.Row(80), s.Row(3)) // ties: the earlier column must win
	copy(s.Row(149), s.Row(3))
	// Long unit-norm rows: once a row holds k candidates its raised bound
	// lets later tiles stop at a checkpoint, and keeps rising between them.
	long, longS := randomMatrix(rng, 23, 100), randomMatrix(rng, 150, 100)
	long.NormalizeRows()
	longS.NormalizeRows()
	copy(longS.Row(149), longS.Row(3))
	for _, k := range []int{1, 3, 200} {
		for _, kern := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
			for _, in := range [][2]*Matrix{{r, s}, {long, longS}} {
				checkRaisedBounds(t, in[0], in[1], k, GemmOptions{Threads: 1, Kernel: kern})
				checkRaisedBounds(t, in[0], in[1], k, GemmOptions{Threads: 2, Kernel: kern, BlockRows: 8, BlockCols: 32})
			}
		}
	}
}

// FuzzScanAboveEqualsReference builds both inputs and the bounds from
// arbitrary float32 bit patterns (denormals, infinities and NaNs
// included): the visited set is exactly the reference's, similarities
// bit for bit, and a bound raised mid-scan changes no top-k result.
func FuzzScanAboveEqualsReference(f *testing.F) {
	f.Add(uint8(5), uint8(17), uint8(9), uint8(2), []byte{0, 0, 128, 63, 0, 0, 0, 192, 205, 204, 76, 62})
	f.Add(uint8(4), uint8(16), uint8(8), uint8(0), []byte{1, 0, 0, 0, 0, 0, 128, 127, 255, 255, 127, 127, 0, 0, 128, 255})
	f.Add(uint8(66), uint8(33), uint8(100), uint8(7), []byte{219, 15, 73, 64, 84, 248, 45, 192, 0, 0, 192, 127, 3})
	f.Add(uint8(7), uint8(70), uint8(0), uint8(1), []byte{0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 128, 255})
	// The early exit's hard cases (earlyExitCases), as nearly as the
	// byte-walk below can spell them. Values repeat with the period given,
	// so with period d every row of r and s is the same vector, and with
	// period 2d two vectors alternate.
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	seed := func(period int, at map[int]float32) []byte {
		// Value i is read at byte 3i, so its low byte is its neighbour's
		// high byte: the top three bytes are as asked, the last is not.
		data := make([]byte, 3*period+3)
		for i, v := range at {
			b := math.Float32bits(v)
			data[3*i+1], data[3*i+2], data[3*i+3] = byte(b>>8), byte(b>>16), byte(b>>24)
		}
		return data
	}
	rounding := map[int]float32{0: 4096.0005}
	for k := 16; k < 32; k++ {
		rounding[k] = 1.2247449
	}
	f.Add(uint8(8), uint8(31), uint8(32), uint8(0), seed(32, rounding))
	f.Add(uint8(8), uint8(19), uint8(48), uint8(2), seed(96, map[int]float32{1: -inf, 40: 1, 49: 1, 88: 1, 90: inf, 93: nan}))
	f.Add(uint8(12), uint8(32), uint8(64), uint8(1), seed(128, map[int]float32{0: 3e18, 1: 3e18, 50: 0.75, 63: 0.5, 64: 1e18, 65: -1e18, 114: 1, 127: 1}))
	f.Add(uint8(66), uint8(39), uint8(100), uint8(3), seed(100, map[int]float32{2: 0.6, 9: 0.8}))
	f.Fuzz(func(t *testing.T, nr, ns, d, k uint8, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		word := 0
		next := func() float32 {
			// Walk the input byte-wise so consecutive values overlap and
			// short inputs still give varied vectors.
			off := word % (len(data) - 3)
			word += 3
			return math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
		}
		fill := func(rows, cols int) *Matrix {
			m := New(rows, cols)
			for i := range m.Data {
				m.Data[i] = next()
			}
			return m
		}
		r, s := fill(int(nr)%70, int(d)%131), fill(int(ns)%70+1, int(d)%131)
		bound := make([]float32, r.Rows())
		for i := range bound {
			bound[i] = next()
			if i%3 == 1 && s.Rows() > 0 {
				bound[i] = dotSeq(r.Row(i), s.Row(i%s.Rows()))
			}
		}
		opts := GemmOptions{Threads: 1 + int(k)%2, Kernel: vec.KernelSIMD, BlockRows: 8}
		sameCells(t, "scan", scanCells(t, r, s, bound, opts), refScan(r, s, bound))
		checkRaisedBounds(t, r, s, int(k)%5+1, opts)
	})
}
