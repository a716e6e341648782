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
// zero-padded tail, the S block — with bounds no similarity reaches,
// every similarity reaches, and that sit exactly on one.
func TestScanAboveShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	negZero := float32(math.Copysign(0, -1))
	for nr := 0; nr <= 9; nr++ {
		for _, ns := range []int{1, 15, 16, 17, 63, 64, 65, 1000} {
			for _, d := range []int{0, 1, 100} {
				r, s := randomMatrix(rng, nr, d), randomMatrix(rng, ns, d)
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
	for _, k := range []int{1, 3, 200} {
		for _, kern := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
			checkRaisedBounds(t, r, s, k, GemmOptions{Threads: 1, Kernel: kern})
			checkRaisedBounds(t, r, s, k, GemmOptions{Threads: 2, Kernel: kern, BlockRows: 8, BlockCols: 32})
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
