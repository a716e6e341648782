package mat

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ejoin/internal/vec"
)

// sameAMX runs amxKeep on the prepared tile of f, rows 0..3 against the
// first ns <= 32 columns of its block, and fails the test unless its
// mask is int8TileGE's, keep, bit for bit, and its cells are the codes'
// (checkAMXCells).
func sameAMX(t *testing.T, f *int8Filter, bound []float32, ns int, keep uint32) {
	t.Helper()
	f.cfg.setup(f.d4)
	f.amxRun(0, 4, bound, ns)
	if f.masks[0] != keep || f.keep[0] != amxWord(bound, uint64(min(keep, 1))) {
		t.Fatalf("d %d, bounds %v: AMX mask %#08x (keep word %#x), int8TileGE %#08x", f.d, bound, f.masks[0], f.keep[0], keep)
	}
	checkAMXCells(t, f, 0, 0)
}

// amxWord is the keep word of a strip whose rows a call owns have bounds
// b and whose pairs some row keeps are pairs: those, amxNaN if every
// bound is NaN, and amxNegInf if every one is -Inf.
func amxWord(b []float32, pairs uint64) uint64 {
	if allNaN(b) {
		pairs |= amxNaN
	}
	if allNegInf(b) {
		pairs |= amxNegInf
	}
	return pairs
}

// checkAMXCells fails the test unless the int32 dot products amxKeep left in
// f.buf, those of its last call's last group, the 16 R rows from row n
// of the layout, with its last pair, the two panels from column c of the
// block, are the exact sums Σ(q_r+128)·q_s of the codes, which the
// panels' corr D - 128·Σq_s makes the cells.
func checkAMXCells(t *testing.T, f *int8Filter, n, c int) {
	t.Helper()
	for p := range 2 {
		for row := range 16 {
			for jj := range panelCols {
				col := c + p*panelCols + jj
				var want int32
				for k := range f.d4 {
					want += int32(f.r[(n+row)*f.d4+k]) * int32(int8(f.s[col/panelCols*panelCols*f.d4+k/4*4*panelCols+jj*4+k%4]))
				}
				if got := f.buf[p*16*panelCols+row*panelCols+jj]; got != want {
					t.Fatalf("d %d: AMX cell (%d,%d) is %d, the codes sum to %d", f.d, n+row, col, got, want)
				}
			}
		}
	}
}

// checkAMX runs one amxRun over R rows [fr, end) of r, strips from fr (a
// multiple of 4) with bounds bound[0:end-fr], against the first width
// columns of s, and fails the test unless, for every strip of every
// 16-row group the call covers and every pair of panels, its mask and
// keep bit are int8TileGE's on the same rows and panels, bit for bit,
// with NaN bounds for the rows the call does not own, its keep word
// flags the strips whose owned bounds are all NaN or all -Inf, and the
// last pair's cells are the codes'. Rows past end up to the group's end must
// exist in r. It returns how many of the tiles kept some column.
func checkAMX(t *testing.T, r, s *Matrix, bound []float32, fr, end, width int) (kept int) {
	t.Helper()
	if !haveAMX {
		t.Skip(amxAbsent + ", so the AMX form of the int8 filter is not tested here")
	}
	f := newInt8Filter(r.Cols(), r.Rows(), width)
	f.cfg.setup(f.d4)
	f.r, f.rowMeta = NewForms(r).rowInt8()
	f.cols, f.c0 = NewForms(s.Slice(0, width)), 0
	f.prepareBlock()
	at, to := f.amxRun(fr, end, bound, width)
	pairs := (width + 2*panelCols - 1) / (2 * panelCols)
	nan := float32(math.NaN())
	for n := at; n < (to+15)&^15; n += 4 {
		var b [4]float32
		var owned []float32
		for u := range b {
			b[u] = nan
			if fr <= n+u && n+u < to {
				b[u] = bound[n+u-fr]
				owned = append(owned, b[u])
			}
		}
		g, strip := (n-at)/16, n%16/4
		var bits uint64
		for q := range pairs {
			c := 2 * panelCols * q
			want := f.tile(n, c, &b[0], uint32(1)<<min(2*panelCols, width-c)-1)
			if got := f.masks[(g*pairs+q)*4+strip]; got != want {
				t.Fatalf("d %d, rows [%d,%d), width %d: strip at row %d, pair %d: AMX mask %#08x, int8TileGE %#08x with bounds %v",
					r.Cols(), fr, end, width, n, q, got, want, b)
			}
			if want != 0 {
				bits |= 1 << q
				kept++
			}
		}
		if got, want := f.keep[(n-at)/4], amxWord(owned, bits); got != want {
			t.Fatalf("d %d, rows [%d,%d), width %d: strip at row %d: keep word %#x, want %#x for bounds %v", r.Cols(), fr, end, width, n, got, want, b)
		}
	}
	checkAMXCells(t, f, (to-1)&^15, 2*panelCols*(pairs-1))
	return kept
}

// TestAMXMatchesInt8TileGE holds amxKeep to int8TileGE on hard cases:
// rows of 32 to 1024 elements, whole and odd K chunks, runs that start
// mid-group and end mid-group, blocks of one column to amxPairs pairs
// with a lone last panel, non-finite, zero and huge rows, and NaN, -Inf
// and +Inf bounds.
func TestAMXMatchesInt8TileGE(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, d := range []int{32, 33, 64, 100, 128, 1024} {
		for _, shape := range []struct{ fr, end, width int }{
			{0, 4, 1}, {0, 16, 16}, {4, 61, 17}, {12, 80, 33}, {0, 256, 64}, {8, 200, 100}, {0, 100, 256},
		} {
			rows := (shape.end + 15) &^ 15
			r, s := randomMatrix(rng, rows, d), randomMatrix(rng, shape.width, d)
			r.NormalizeRows()
			s.NormalizeRows()
			// Near copies, so that some tiles are kept.
			for i := 0; i < rows; i += 7 {
				copy(s.Row(i%shape.width), r.Row(i))
			}
			clear(r.Row(1))
			r.Row(rows - 1)[d/2] = inf
			s.Row(0)[0] = nan
			r.Row(rows / 2)[0] = 1e30
			clear(s.Row(shape.width - 1))
			bound := mixedBounds(shape.end - shape.fr)
			checkAMX(t, r, s, bound, shape.fr, shape.end, shape.width)
		}
	}
}

// FuzzAMXMatchesInt8TileGE drives one amxRun on rows built from
// arbitrary bytes (fuzzRows' seven modes), a run starting at any strip
// of its first group and ending anywhere, 1 to 256 columns and rows of 1
// to 1024 elements, with bounds on a cell, one ulp under one, or any bit
// pattern, and checks it against int8TileGE tile by tile (checkAMX).
func FuzzAMXMatchesInt8TileGE(f *testing.F) {
	f.Add(uint16(99), uint8(40), uint8(3), uint8(70), []byte{4, 4, 4, 4, 0, 0, 128, 63, 205, 204, 76, 62, 1, 2, 3})
	f.Add(uint16(1023), uint8(15), uint8(0), uint8(255), []byte{2, 3, 5, 6, 7, 7, 7, 7, 255, 127, 0, 1})
	f.Add(uint16(32), uint8(100), uint8(2), uint8(16), []byte{3, 2, 0, 0, 128, 127, 1, 0, 0, 0, 219, 15, 73, 64})
	f.Fuzz(func(t *testing.T, d16 uint16, n8, lead8, w8 uint8, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		word := 0
		raw := func() uint32 {
			off := word % (len(data) - 3)
			word += 3
			return binary.LittleEndian.Uint32(data[off:])
		}
		d, fr, width := 1+int(d16)%1024, 4*(int(lead8)%4), 1+int(w8)
		end := fr + 1 + int(n8)%80
		r, s := New((end+15)&^15, d), New(width, d)
		rows := make([][]float32, 0, r.Rows()+width)
		for i := range r.Rows() {
			rows = append(rows, r.Row(i))
		}
		for j := range width {
			rows = append(rows, s.Row(j))
		}
		fuzzRows(rows, raw)
		bound := make([]float32, end-fr)
		for i := range bound {
			v := raw()
			cell := refDotSeq(r.Row(fr+i), s.Row(int(v>>8)%width))
			switch v % 3 {
			case 0:
				bound[i] = cell
			case 1:
				bound[i] = math.Nextafter32(cell, float32(math.Inf(-1)))
			default:
				bound[i] = math.Float32frombits(raw())
			}
		}
		checkAMX(t, r, s, bound, fr, end, width)
	})
}

// mixedBounds returns n bounds, strip by strip (four rows from the
// first): every bound NaN in every fifth strip, every one -Inf in the
// next, and in the others a mix of 0.8, 0.5, NaN, -Inf, +Inf, 0, -0.2
// and 0.95.
func mixedBounds(n int) []float32 {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	b := make([]float32, n)
	for i := range b {
		switch i / 4 % 5 {
		case 3:
			b[i] = nan
		case 4:
			b[i] = -inf
		default:
			b[i] = []float32{0.8, 0.5, nan, -inf, inf, 0, -0.2, 0.95}[i%8]
		}
	}
	return b
}

// TestAMXScanMatchesVNNI scans near-duplicate rows under mixedBounds and
// under a threshold of 0.8 on both forms of the int8 filter, with workers whose runs start and end
// mid-group, blocks of one panel, of two pairs, with a lone last panel,
// and wider than one amxKeep call takes, and each with a visitor that
// raises its row's bound to every cell it sees: the visited cells and
// every ScanStats field are the same.
func TestAMXScanMatchesVNNI(t *testing.T) {
	if !haveAMX {
		t.Skip(amxAbsent + ", so the AMX form of the int8 filter is not tested here")
	}
	rng := rand.New(rand.NewSource(103))
	r, s := randomMatrix(rng, 301, 100), randomMatrix(rng, 517, 100)
	r.NormalizeRows()
	s.NormalizeRows()
	for i := 0; i < r.Rows(); i += 3 {
		copy(s.Row(i*7%s.Rows()), r.Row(i))
		s.Row(i * 7 % s.Rows())[i%100] += 0.1
	}
	threshold := func(n int) []float32 {
		b := make([]float32, n)
		for i := range b {
			b[i] = 0.8
		}
		return b
	}
	var bounds func(int) []float32
	scan := func(amx bool, o GemmOptions, raise bool) ([]cell, ScanStats) {
		defer tileWidth{zmm: true, int8: true, amx: amx}.use()()
		bound := bounds(r.Rows())
		if !raise {
			return scanCells(t, r, s, bound, o)
		}
		var mu sync.Mutex
		var cells []cell
		st, err := ScanAbove(context.Background(), r, s, bound, o, func() ScanVisitor {
			return func(i, j int, sim float32) {
				mu.Lock()
				defer mu.Unlock()
				cells = append(cells, cell{i, j, math.Float32bits(sim)})
				bound[i] = max(bound[i], sim)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(cells, func(a, b cell) int { return cmp.Or(a.i-b.i, a.j-b.j) })
		return cells, st
	}
	for _, o := range []GemmOptions{
		{Threads: 1, BlockCols: 16},
		{Threads: 1},
		{Threads: 3, BlockRows: 4, BlockCols: 80},
		{Threads: 2, BlockCols: 100},
		{Threads: 1, BlockCols: 512},
	} {
		o.Kernel = vec.KernelSIMD
		for _, raise := range []bool{false, true} {
			for name, b := range map[string]func(int) []float32{"mixed bounds": mixedBounds, "bounds of 0.8": threshold} {
				bounds = b
				label := fmt.Sprintf("%s, %d thread(s), %d-column blocks, raising bounds %v", name, o.Threads, o.BlockCols, raise)
				want, wantSt := scan(false, o, raise)
				got, st := scan(true, o, raise)
				sameCells(t, label, got, want)
				if st != wantSt || st.Int8Tiles == 0 {
					t.Errorf("%s: AMX %+v, VPDPBUSD %+v", label, st, wantSt)
				}
			}
		}
	}
}

// TestAMXFollowsRaisedBounds: a visitor that raises its row's bound
// after the strip's first pair of panels rules out the second, which the
// masks amxKeep took under the old bound keep. The strip then tests its
// remaining tiles against the new bound, as int8TileGE does, and the
// scans on both forms do the same work.
func TestAMXFollowsRaisedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	r, s := randomMatrix(rng, 4, 64), randomMatrix(rng, 64, 64)
	r.NormalizeRows()
	s.NormalizeRows()
	copy(s.Row(5), r.Row(0)) // a cell of 1 in the first pair
	for k := range s.Row(40) {
		s.Row(40)[k] = 0.6*r.Row(0)[k] + 0.8*s.Row(40)[k] // about 0.6 in the second
	}
	vec.Normalize(s.Row(40))
	var stats []ScanStats
	for _, w := range tileWidths {
		if !w.int8 {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			if why := w.missing(); why != "" {
				t.Skip(why)
			}
			defer w.use()()
			bound := []float32{0.5, 2, 2, 2}
			raise := func() ScanVisitor {
				return func(i, j int, sim float32) { bound[i] = max(bound[i], sim) }
			}
			st, err := ScanAbove(context.Background(), r, s, bound, GemmOptions{Threads: 1, Kernel: vec.KernelSIMD, BlockCols: 64}, raise)
			if err != nil {
				t.Fatal(err)
			}
			if st.Int8Tiles != 2 || st.Int8RuledOut != 1 {
				t.Errorf("%d int8 tiles, %d ruled out; want the second of 2 ruled out under the raised bound", st.Int8Tiles, st.Int8RuledOut)
			}
			stats = append(stats, st)
		})
	}
	if len(stats) == 2 && stats[0] != stats[1] {
		t.Errorf("VPDPBUSD %+v, AMX %+v", stats[0], stats[1])
	}
}

// BenchmarkInt8Filter times the int8 filter's masks of a 256-row run of
// planted unit rows (d 100) against 16 blocks of 64 columns under a
// bound of 0.8, as a dense scan tests them: one int8TileGE call per 4x32
// tile, or one amxKeep call per block. ns/tile is per 4x32 tile.
func BenchmarkInt8Filter(b *testing.B) {
	if !haveVNNI {
		b.Skip("no AVX-512 VNNI on this host, so no int8 filter to time")
	}
	r, s := plantedRows(1024, 100, 300)
	rows, cols := NewForms(r.Slice(0, 256)), NewForms(s)
	bound := make([]float32, 256)
	for i := range bound {
		bound[i] = 0.8
	}
	const bc = 64
	f := newInt8Filter(r.Cols(), 256, bc)
	f.r, f.rowMeta = rows.rowInt8()
	f.cols = cols
	tiles := float64(256 / 4 * s.Rows() / 32)
	b.Run("VPDPBUSD", func(b *testing.B) {
		for b.Loop() {
			for c0 := 0; c0 < s.Rows(); c0 += bc {
				f.c0 = c0
				f.prepareBlock()
				for n := 0; n < 256; n += 4 {
					for c := 0; c < bc; c += 2 * panelCols {
						f.tile(n, c, &bound[n], ^uint32(0))
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tiles, "ns/tile")
	})
	b.Run("AMX", func(b *testing.B) {
		if !haveAMX {
			b.Skip(amxAbsent)
		}
		f.cfg.setup(f.d4)
		for b.Loop() {
			for c0 := 0; c0 < s.Rows(); c0 += bc {
				f.c0 = c0
				f.prepareBlock()
				f.amxRun(0, 256, bound, bc)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tiles, "ns/tile")
	})
}
