package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

// filterKeep runs the int8 filter's tile on the first four rows of r
// against the first 32 rows of s (fewer leave zero-padded lanes) and
// fails the test if it rules out a column where some row's refDotSeq
// reaches its bound. It returns the tile's mask of the real columns.
// It also checks the tile's estimates (checkEstimates).
func filterKeep(t *testing.T, r, s *Matrix, bound []float32) uint32 {
	t.Helper()
	if !haveVNNI {
		t.Skip("no AVX-512 VNNI on this host, so no int8 filter to test")
	}
	f := newInt8Filter(r.Cols(), 4, 2*panelCols)
	defer f.release()
	f.nextBlock()
	ns := min(s.Rows(), 2*panelCols)
	f.prepare(s, 0, ns, &r.Data[0], 0)
	keep := f.tile(0, 0, &bound[0], uint32(1)<<ns-1)
	if haveAMX {
		sameAMX(t, f, bound, ns, keep)
	}
	checkEstimates(t, f, r, s)
	for i := 0; i < 4; i++ {
		for j := 0; j < ns; j++ {
			if sim := refDotSeq(r.Row(i), s.Row(j)); sim >= bound[i] && keep&(1<<j) == 0 {
				t.Fatalf("d %d: cell (%d,%d) = %g (%#08x) reaches bound %g but its column was ruled out\nr%d = %v\ns%d = %v",
					r.Cols(), i, j, sim, math.Float32bits(sim), bound[i], i, r.Row(i), j, s.Row(j))
			}
		}
	}
	return keep
}

// checkEstimates runs the prepared tile of f, rows 0..3 of r against
// the first ns <= 32 rows of s, with bounds of -Inf, and fails the test
// unless every cell's lower estimate is at most its refDotSeq and its
// upper estimate at least (a NaN estimate passes either way; a NaN cell
// needs a NaN or -Inf lower estimate, or a top-k could count it), and
// each row's largest lower estimate is the largest of its cells' that
// are not NaN, or -Inf.
func checkEstimates(t *testing.T, f *int8Filter, r, s *Matrix) {
	t.Helper()
	ns := min(s.Rows(), 2*panelCols)
	negInf := float32(math.Inf(-1))
	bound := [4]float32{negInf, negInf, negInf, negInf}
	real := uint32(1)<<ns - 1
	f.tileEst(0, 0, &bound[0], &[4]uint32{real, real, real, real})
	for i := 0; i < 4; i++ {
		most := negInf
		for j := 0; j < ns; j++ {
			cell := refDotSeq(r.Row(i), s.Row(j))
			up, lo := f.est[i*32+j], f.est[128+i*32+j]
			if lo > most {
				most = lo
			}
			if cell != cell && lo == lo && lo != negInf || cell == cell && (lo > cell || up < cell) {
				t.Fatalf("d %d: cell (%d,%d) = %g (%#08x), estimates [%g, %g]\nr%d = %v\ns%d = %v",
					r.Cols(), i, j, cell, math.Float32bits(cell), lo, up, i, r.Row(i), j, s.Row(j))
			}
		}
		if got := f.est[256+i]; math.Float32bits(got) != math.Float32bits(most) {
			t.Fatalf("d %d: row %d's largest lower estimate is %g, its cells' is %g", r.Cols(), i, got, most)
		}
	}
}

// TestInt8FilterHardCases holds the filter to the F32 cells on inputs
// built against its inequality, and checks that it does rule out the
// columns of an easy one.
func TestInt8FilterHardCases(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rng := rand.New(rand.NewSource(83))
	unit := func(rows, d int) *Matrix {
		m := randomMatrix(rng, rows, d)
		m.NormalizeRows()
		return m
	}
	// on sets every row's bound exactly on its cell with column j.
	on := func(r, s *Matrix, j int) []float32 {
		b := make([]float32, 4)
		for i := range b {
			b[i] = refDotSeq(r.Row(i), s.Row(j))
		}
		return b
	}

	// Random unit rows against a bound well above every cell: the filter
	// must rule the whole tile out, or it filters nothing.
	r, s := unit(4, 100), unit(32, 100)
	if keep := filterKeep(t, r, s, []float32{0.9, 0.9, 0.9, 0.9}); keep != 0 {
		t.Errorf("unit rows under a bound of 0.9: kept columns %#x", keep)
	}
	// A near duplicate in column 20 with the bound on its cell, and a
	// bound one ulp under another cell.
	copy(s.Row(20), r.Row(1))
	s.Row(20)[3] += 1e-3
	b := on(r, s, 20)
	b[2] = math.Nextafter32(refDotSeq(r.Row(2), s.Row(7)), -2)
	if keep := filterKeep(t, r, s, b); keep&(1<<20) == 0 || keep&(1<<7) == 0 {
		t.Errorf("near duplicate: kept columns %#x", keep)
	}

	// Every component but the first sits half a step off the codes, a
	// tie the quantizer breaks away from zero. With opposite signs on the
	// two sides each side's error points against the other's, and their
	// products add up to (d-1)*s_i*s_j/4 below the cell, which only D
	// covers in the upper estimate; with the same signs they add up to as
	// much above it, which only D covers in the lower one. The scales are
	// 2^-7 and every sum is exact, so the cell is x.y.
	for _, sign := range []float32{-1, 1} {
		r, s = New(4, 1000), New(32, 1000)
		for k := range r.Row(0) {
			v := float32(2*(k%3)+1) + 0.5
			if k == 0 {
				v = 127
			}
			for i := 0; i < 4; i++ {
				r.Row(i)[k] = v / 128
			}
			for j := 0; j < 32; j++ {
				s.Row(j)[k] = sign * v / 128
			}
		}
		filterKeep(t, r, s, on(r, s, 0))
	}

	// One-hot rows: all error sits in one component of each side.
	r, s = New(4, 64), New(32, 64)
	for i := 0; i < 4; i++ {
		r.Row(i)[i] = 0.3 + float32(i)
	}
	for j := 0; j < 32; j++ {
		s.Row(j)[j%8] = 1 - float32(j)/40
	}
	filterKeep(t, r, s, on(r, s, 2))

	// Rows at the edges of the covered range, 2^-40 and 2^40, and just
	// past them, whose tiles must all be kept, also by a zero row under a
	// bound of 0 (0 times an infinite factor: a NaN estimate); denormal
	// components in an otherwise normal row; and a zero row against a
	// bound of 0.
	for _, scale := range []float32{0x1p-40, 0x1p-41, 0x1p40, 0x1p41, 0x1p-130} {
		r, s = unit(32, 48), unit(32, 48)
		for i := range r.Data {
			r.Data[i] *= scale
		}
		clear(s.Row(2))
		filterKeep(t, r, s, on(r, s, 5))
		filterKeep(t, s, r, on(s, r, 1))
	}
	r, s = unit(4, 33), unit(32, 33)
	for k := 0; k < 33; k += 2 {
		r.Row(0)[k], s.Row(3)[k] = 0x1p-140, -0x1p-149
	}
	clear(r.Row(3))
	b = on(r, s, 3)
	b[3] = 0
	filterKeep(t, r, s, b)

	// Large rows whose products cancel to a small cell.
	r, s = New(4, 40), New(32, 40)
	for i := 0; i < 4; i++ {
		r.Row(i)[0], r.Row(i)[1], r.Row(i)[39] = 3e5, -3e5, 0.5
	}
	for j := 0; j < 32; j++ {
		s.Row(j)[0], s.Row(j)[1], s.Row(j)[39] = 1e5, 1e5, float32(j)/16
	}
	filterKeep(t, r, s, on(r, s, 31))

	// Infinite and NaN components, and infinite and NaN bounds.
	r, s = unit(4, 64), unit(32, 64)
	r.Row(1)[9], s.Row(4)[60], s.Row(5)[0] = inf, nan, -inf
	filterKeep(t, r, s, []float32{-inf, 0.5, nan, inf})
	filterKeep(t, r, s, on(r, s, 4))
}

// TestInt8Quant holds the quantizer to its definition: per row the
// largest |x| and the L1 norm, and codes round(x*inv) to nearest even in
// groups of four, laid out at the row, group and within-row strides
// asked, XORed with flip, the last group padded with code 0, and their
// sum.
func TestInt8Quant(t *testing.T) {
	if !haveVNNI {
		t.Skip("no AVX-512 VNNI on this host, so no int8 filter to test")
	}
	rng := rand.New(rand.NewSource(89))
	for _, d := range []int{1, 3, 4, 15, 16, 17, 33, 100, 101} {
		const n = 19
		x := randomMatrix(rng, n, d)
		stats := make([]float32, 2*n)
		int8Stats(&x.Data[0], d, n, &stats[0])
		inv := make([]float32, n)
		for j := 0; j < n; j++ {
			var wantMax, wantL1 float64
			for _, v := range x.Row(j) {
				wantMax, wantL1 = math.Max(wantMax, math.Abs(float64(v))), wantL1+math.Abs(float64(v))
			}
			if maxAbs, l1 := stats[2*j], stats[2*j+1]; float64(maxAbs) != wantMax || math.Abs(float64(l1)-wantL1) > 1e-5*wantL1 {
				t.Fatalf("d %d, row %d: stats %g, %g, want %g, %g", d, j, maxAbs, l1, wantMax, wantL1)
			}
			inv[j] = 127 / stats[2*j]
		}
		d4 := (d + 3) &^ 3
		for _, layout := range [][2]int{{d4, 4}, {4, 64}} { // R rows, S panels
			rowStep, stride := layout[0], layout[1]
			groupStep := 16 * d4
			for _, flip := range []uint32{0, 0x80808080} {
				dst := make([]byte, 2*groupStep)
				sums := make([]int32, n)
				int8Quant(&x.Data[0], d, n, &inv[0], &dst[0], rowStep, groupStep, stride, flip, &sums[0])
				for j := 0; j < n; j++ {
					var want int32
					for k := 0; k < d4; k++ {
						var q int8
						if k < d {
							q = int8(math.RoundToEven(float64(x.Row(j)[k] * inv[j])))
						}
						want += int32(q)
						at := j/16*groupStep + j%16*rowStep + k/4*stride + k%4
						if got := dst[at]; got != byte(q)^byte(flip) {
							t.Fatalf("d %d, strides %d/%d, flip %#x: row %d code %d is %#02x, want %#02x", d, rowStep, stride, flip, j, k, got, byte(q)^byte(flip))
						}
					}
					if sums[j] != want {
						t.Fatalf("d %d: row %d's code sum %d, want %d", d, j, sums[j], want)
					}
				}
			}
		}
	}
}

// FuzzInt8FilterConservative drives the int8 filter's tile on its own
// with rows built from arbitrary bytes: raw float32 bit patterns (NaN,
// infinities, denormals and huge values included), one-hot rows, rows
// scaled past either end of the range the filter covers, small-integer
// rows, unit rows and near copies of another row; bounds sit exactly on
// a cell's refDotSeq, one ulp under one, or anywhere. No column where a
// cell reaches its row's bound may be ruled out, no lower estimate may
// exceed its cell and no upper estimate fall below it (checkEstimates).
// On AMX hosts the tile's mask and cells on AMX tiles must also be
// int8TileGE's (sameAMX).
func FuzzInt8FilterConservative(f *testing.F) {
	f.Add(uint16(99), uint8(31), []byte{4, 4, 4, 4, 0, 0, 128, 63, 205, 204, 76, 62, 1, 2, 3})
	f.Add(uint16(31), uint8(16), []byte{1, 1, 1, 1, 9, 200, 17, 3, 0, 0, 0, 128})
	f.Add(uint16(1023), uint8(32), []byte{2, 3, 5, 6, 7, 7, 7, 7, 255, 127, 0, 1})
	f.Add(uint16(47), uint8(5), []byte{3, 2, 0, 0, 128, 127, 1, 0, 0, 0, 219, 15, 73, 64})
	f.Fuzz(func(t *testing.T, d16 uint16, ns8 uint8, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		word := 0
		raw := func() uint32 {
			// Walk the input byte-wise, as FuzzScanAboveEqualsReference does.
			off := word % (len(data) - 3)
			word += 3
			return binary.LittleEndian.Uint32(data[off:])
		}
		d, ns := 1+int(d16)%1024, 1+int(ns8)%32
		r, s := New(4, d), New(ns, d)
		rows := make([][]float32, 0, 4+ns)
		for i := 0; i < 4; i++ {
			rows = append(rows, r.Row(i))
		}
		for j := 0; j < ns; j++ {
			rows = append(rows, s.Row(j))
		}
		fuzzRows(rows, raw)
		bound := make([]float32, 4)
		for i := range bound {
			v := raw()
			cell := refDotSeq(r.Row(i), s.Row(int(v>>8)%ns))
			switch v % 3 {
			case 0:
				bound[i] = cell
			case 1:
				bound[i] = math.Nextafter32(cell, float32(math.Inf(-1)))
			default:
				bound[i] = math.Float32frombits(raw())
			}
		}
		filterKeep(t, r, s, bound)
	})
}

// fuzzRows fills rows from raw's words, each row in one of seven modes:
// raw float32 bit patterns (NaN, infinities, denormals and huge values
// included), one-hot, scaled past either end of the range the int8
// filter covers or just inside it, small integers, a unit row, or a near
// copy of another row.
func fuzzRows(rows [][]float32, raw func() uint32) {
	for _, row := range rows {
		d := len(row)
		mode := raw()
		switch mode % 7 {
		case 0:
			for k := range row {
				row[k] = math.Float32frombits(raw())
			}
		case 1:
			row[int(mode>>8)%d] = math.Float32frombits(raw())
		case 2, 3:
			// Past either end of [2^-40, 2^40], or just inside it.
			e := 30 + int(mode>>8)%24
			if mode%7 == 3 {
				e = -30 - int(mode>>8)%120
			}
			for k := range row {
				row[k] = float32(math.Ldexp(float64(int8(raw()))/128, e))
			}
		case 4:
			for k := range row {
				row[k] = float32(int8(raw())) / 16
			}
		case 5:
			for k := range row {
				row[k] = float32(int8(raw()))
			}
			vec.Normalize(row)
		case 6:
			src := rows[int(mode>>8)%len(rows)]
			for k := range row {
				row[k] = src[k] * (1 + float32(int8(raw()))/1024)
			}
		}
	}
}
