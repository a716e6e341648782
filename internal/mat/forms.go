package mat

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Forms holds the layouts the scan kernels read a matrix's rows in besides
// its row-major F32 elements (package doc, "Forms"): its rows packed into
// 16-column k-major panels, their suffix factors, and their int8 codes
// with each row's scale, L1 factor and code sum, once as R rows and once
// as S panels. Each layout is derived from the rows the first time a scan
// reads it and then kept, so a matrix that many scans read — an embedded
// column's chunk — is quantized, packed and normed once. The matrix must
// not change while its Forms are in use.
//
// A Forms may be read by any number of scans at once.
type Forms struct {
	m     *Matrix
	mu    sync.Mutex
	ready atomic.Uint32 // the layouts built, a bit each
	// panels is packPanels of every row, the last panel zero-padded.
	panels []float32
	// factors is suffixFactors of every row, in whole groups of 16.
	factors []float32
	// rowCodes and rowMeta are the R layout of the int8 filter: codes
	// offset by +128, d4 bytes a row, rows padded to whole groups of 16
	// with code 0; per group the 16 scales, then the 16 factors β·|row|₁.
	rowCodes []byte
	rowMeta  []float32
	// colCodes, colCorr and colMeta are the S layout: 16-column panels of
	// d4/4 64-byte groups, per column D − 128·(its code sum), and per
	// panel the 16 scales and then the 16 factors, padded with code 0,
	// scale 0 and factor 0 to whole panels and one panel more, so that a
	// 4x32 int8 tile may start at any panel.
	colCodes []byte
	colCorr  []int32
	colMeta  []float32
	// q is quantize's scratch where the forms are rebuilt often (a scan
	// worker's); nil, a build allocates its own.
	q *quantizer
}

// The layouts of a Forms, a bit each in ready.
const (
	formPanels uint32 = 1 << iota
	formFactors
	formRowCodes
	formColCodes
)

// NewForms returns m's Forms, none of them built yet.
func NewForms(m *Matrix) *Forms { return &Forms{m: m} }

// Bytes is the memory the layouts built so far hold.
func (f *Forms) Bytes() int64 {
	var n int64
	ready := f.ready.Load()
	if ready&formPanels != 0 {
		n += 4 * int64(len(f.panels))
	}
	if ready&formFactors != 0 {
		n += 4 * int64(len(f.factors))
	}
	if ready&formRowCodes != 0 {
		n += int64(len(f.rowCodes)) + 4*int64(len(f.rowMeta))
	}
	if ready&formColCodes != 0 {
		n += int64(len(f.colCodes)) + 4*int64(len(f.colCorr)+len(f.colMeta))
	}
	return n
}

// reset makes f the forms of m, none built, keeping the storage of those
// it had; a scan worker does so with the forms it derives into scratch,
// which only it reads.
func (f *Forms) reset(m *Matrix) {
	f.m = m
	f.ready.Store(0)
}

// build runs make once for the layout bit: the first reader builds it,
// and any other waits for it.
func (f *Forms) build(bit uint32, make func()) {
	if f.ready.Load()&bit != 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ready.Load()&bit == 0 {
		make()
		f.ready.Or(bit)
	}
}

// packed returns the rows' packed panels: row j at j/16*16*d + j%16,
// step k 16 floats on.
func (f *Forms) packed() []float32 {
	f.build(formPanels, func() {
		n := (f.m.Rows() + panelCols - 1) &^ (panelCols - 1)
		f.panels = grow(f.panels, n*f.m.Cols())
		packPanels(f.panels, f.m, 0, f.m.Rows())
	})
	return f.panels
}

// suffix returns the rows' suffix factors, row j's at checkpoint c at
// factorAt(checkpoints(d), j, c).
func (f *Forms) suffix() []float32 {
	f.build(formFactors, func() {
		n, nc := (f.m.Rows()+panelCols-1)&^(panelCols-1), checkpoints(f.m.Cols())
		f.factors = grow(f.factors, n*nc)
		if nc > 0 && f.m.Rows() > 0 {
			suffixFactors(f.factors, f.m, 0, f.m.Rows())
		}
	})
	return f.factors
}

// rowInt8 returns the R layout: codes and meta.
func (f *Forms) rowInt8() ([]byte, []float32) {
	f.build(formRowCodes, func() {
		n, d4 := (f.m.Rows()+panelCols-1)&^(panelCols-1), int8Width(f.m.Cols())
		f.rowCodes, f.rowMeta = grow(f.rowCodes, n*d4), grow(f.rowMeta, 2*n)
		clear(f.rowCodes[f.m.Rows()*d4:])
		clear(f.rowMeta)
		if f.m.Rows() > 0 {
			f.quantizer().quantize(&f.m.Data[0], f.m.Rows(), &f.rowCodes[0], d4, 4, 0x80808080, f.rowMeta)
		}
	})
	return f.rowCodes, f.rowMeta
}

// colInt8 returns the S layout: codes, corrections and meta.
func (f *Forms) colInt8() ([]byte, []int32, []float32) {
	f.build(formColCodes, func() {
		rows, d4 := f.m.Rows(), int8Width(f.m.Cols())
		lanes := (rows+panelCols-1)&^(panelCols-1) + panelCols
		f.colCodes, f.colCorr, f.colMeta = grow(f.colCodes, lanes*d4), grow(f.colCorr, lanes), grow(f.colMeta, 2*lanes)
		clear(f.colCodes[rows/panelCols*panelCols*d4:])
		clear(f.colMeta)
		for jj := rows; jj < lanes; jj++ {
			f.colCorr[jj] = int32(d4/4 + 1)
		}
		if rows > 0 {
			q := f.quantizer()
			q.quantize(&f.m.Data[0], rows, &f.colCodes[0], 4, 4*panelCols, 0, f.colMeta)
			for j, sum := range q.sums[:rows] {
				f.colCorr[j] = int32(d4/4+1) - 128*sum
			}
		}
	})
	return f.colCodes, f.colCorr, f.colMeta
}

// quantizer is f.q set up for f's matrix, or a new one.
func (f *Forms) quantizer() *quantizer {
	q := f.q
	if q == nil {
		q = new(quantizer)
	}
	q.setup(f.m.Cols(), f.m.Rows())
	return q
}

// Verify rebuilds every layout f has built from its matrix as it is now
// and reports the first that differs, bit for bit: forms derived from
// rows that have since changed are stale.
func (f *Forms) Verify() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ready, fresh := f.ready.Load(), NewForms(f.m)
	if ready&formPanels != 0 && !sameBits(f.panels, fresh.packed()) {
		return fmt.Errorf("mat: %d rows' packed panels differ from a fresh build", f.m.Rows())
	}
	if ready&formFactors != 0 && !sameBits(f.factors, fresh.suffix()) {
		return fmt.Errorf("mat: %d rows' suffix factors differ from a fresh build", f.m.Rows())
	}
	if ready&formRowCodes != 0 {
		codes, meta := fresh.rowInt8()
		if string(codes) != string(f.rowCodes) || !sameBits(meta, f.rowMeta) {
			return fmt.Errorf("mat: %d rows' int8 R layout differs from a fresh build", f.m.Rows())
		}
	}
	if ready&formColCodes != 0 {
		codes, corr, meta := fresh.colInt8()
		if string(codes) != string(f.colCodes) || !slices.Equal(corr, f.colCorr) || !sameBits(meta, f.colMeta) {
			return fmt.Errorf("mat: %d rows' int8 S layout differs from a fresh build", f.m.Rows())
		}
	}
	return nil
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// int8Width is d4, the int8 layouts' bytes a row: d padded to whole
// dwords of four codes.
func int8Width(d int) int { return (d + 3) &^ 3 }

// int8Beta is the L1 factor β of rows of d elements (package doc, "Int8
// filter").
func int8Beta(d int) float32 { return 0.5 + float32(d+16)*0x1p-16 }

// quantizer is quantize's scratch for up to n rows of d elements.
type quantizer struct {
	d    int
	beta float32
	// Per row its largest |x| and L1 norm, 127 over its largest |x|, and
	// its codes' sum.
	stats []float32
	inv   []float32
	sums  []int32
}

// setup sizes q for up to n rows of d elements, keeping its storage.
func (q *quantizer) setup(d, n int) {
	q.d, q.beta = d, int8Beta(d)
	q.stats, q.inv, q.sums = grow(q.stats, 2*n), grow(q.inv, n), grow(q.sums, n)
}

// quantize quantizes n rows of d elements from x: row j's codes go from
// dst + (j/16)*16*d4 + (j%16)*rowStep, group g of them stride*g on, in
// int8Quant's layout, its scale to meta[(j/16)*32+j%16], its factor
// β·|row|₁ 16 further on, and its codes' sum to q.sums[j]. A row the
// filter's inequality does not cover — a non-finite component or L1
// norm, or a largest |x| outside [2^-40, 2^40] other than 0 — gets scale
// 0 and factor +Inf, which make every estimate it enters +Inf or NaN, so
// no tile of it is ruled out.
func (q *quantizer) quantize(x *float32, n int, dst *byte, rowStep, stride int, flip uint32, meta []float32) {
	int8Stats(x, q.d, n, &q.stats[0])
	for j := range n {
		maxAbs, l1 := q.stats[2*j], q.stats[2*j+1]
		var scale, inv, factor float32
		switch {
		case maxAbs == 0 && l1 == 0:
		case 0x1p-40 <= maxAbs && maxAbs <= 0x1p40 && l1 <= math.MaxFloat32:
			scale = maxAbs / 127
			inv, factor = 1/scale, q.beta*l1
		default:
			factor = float32(math.Inf(1))
		}
		q.inv[j] = inv
		meta[j/16*32+j%16], meta[j/16*32+16+j%16] = scale, factor
	}
	int8Quant(x, q.d, n, &q.inv[0], dst, rowStep, panelCols*int8Width(q.d), stride, flip, &q.sums[0])
}

// A Side is an operand of ScanAbove and TopKCandidates: rows of one
// width, held in parts, each a run of rows of one matrix. A *Matrix is a
// Side of one part, whose forms each scan worker derives into scratch as
// it goes: for its own R rows, and for each S block it walks. Parts
// (NewParts) are runs of rows of matrices with resident Forms — an
// embedded column's chunks — which a scan reads in place.
type Side interface {
	Rows() int
	Cols() int
	// Row returns row i, aliasing the side's storage.
	Row(i int) []float32
	parts() []Part
}

// Part is rows [Lo, Hi) of the matrix of Forms. Lo is a multiple of 16,
// so that the part starts a panel of every layout.
type Part struct {
	Forms  *Forms
	Lo, Hi int
	// m is the matrix of a part without resident Forms (a *Matrix side).
	m *Matrix
}

// matrix is the matrix the part's rows are of.
func (p *Part) matrix() *Matrix {
	if p.Forms != nil {
		return p.Forms.m
	}
	return p.m
}

// parts is m as a Side: one part, with no resident forms.
func (m *Matrix) parts() []Part { return []Part{{m: m, Hi: m.RowsN}} }

// Parts is a Side over parts with resident forms, in order: row i of the
// side is the i-th row of their concatenation.
type Parts struct {
	ps   []Part
	cols int
	ends []int // ends[p] is the side row after part p's last
}

// NewParts returns the side of ps, whose matrices have cols columns.
func NewParts(cols int, ps []Part) (*Parts, error) {
	s := &Parts{ps: ps, cols: cols, ends: make([]int, len(ps))}
	n := 0
	for i, p := range ps {
		if p.Forms == nil {
			return nil, fmt.Errorf("mat: part %d has no forms", i)
		}
		m := p.Forms.m
		if m.Cols() != cols || p.Lo%panelCols != 0 || p.Lo < 0 || p.Hi < p.Lo || p.Hi > m.Rows() {
			return nil, fmt.Errorf("mat: part %d is rows [%d,%d) of a %dx%d matrix, want a run from a multiple of %d of %d-column rows", i, p.Lo, p.Hi, m.Rows(), m.Cols(), panelCols, cols)
		}
		n += p.Hi - p.Lo
		s.ends[i] = n
	}
	return s, nil
}

// Rows implements Side.
func (s *Parts) Rows() int {
	if len(s.ends) == 0 {
		return 0
	}
	return s.ends[len(s.ends)-1]
}

// Cols implements Side.
func (s *Parts) Cols() int { return s.cols }

// Row implements Side.
func (s *Parts) Row(i int) []float32 {
	p := sort.SearchInts(s.ends, i+1)
	return s.ps[p].Forms.m.Row(s.ps[p].Hi - (s.ends[p] - i))
}

func (s *Parts) parts() []Part { return s.ps }

// Split cuts s into its first rows, at most n and all of one part, and
// the rest; n is a multiple of 16.
func Split(s Side, n int) (head, tail Side) {
	if m, ok := s.(*Matrix); ok {
		n = min(n, m.Rows())
		return m.Slice(0, n), m.Slice(n, m.Rows())
	}
	ps := s.parts()
	if len(ps) == 0 {
		return s, s
	}
	first := ps[0]
	cut := min(first.Lo+n, first.Hi)
	rest := append([]Part{{Forms: first.Forms, Lo: cut, Hi: first.Hi}}, ps[1:]...)
	if cut == first.Hi {
		rest = rest[1:]
	}
	h, _ := NewParts(s.Cols(), []Part{{Forms: first.Forms, Lo: first.Lo, Hi: cut}})
	t, _ := NewParts(s.Cols(), rest)
	return h, t
}
