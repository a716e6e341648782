package mat

import "unsafe"

// The int8 tests drive one filter tile on its own, outside a scan, on
// forms derived from a few rows.

// newInt8Filter returns a filter for rows of d elements (rows and
// blockCols are a scan worker's, which a tile tested on its own does not
// need).
func newInt8Filter(d, rows, blockCols int) *int8Filter {
	f := new(int8Filter)
	f.start(d)
	return f
}

// release lets f go.
func (f *int8Filter) release() {}

// prepare points the filter at forms derived from S rows [sLo, sHi) of
// s, as its block, and from the four R rows at x, as its rows n..n+3.
func (f *int8Filter) prepare(s *Matrix, sLo, sHi int, x *float32, n int) {
	r := New(n+4, f.d)
	copy(r.Data[n*f.d:], unsafe.Slice(x, 4*f.d))
	f.cols, f.c0 = NewForms(s.Slice(sLo, sHi)), 0
	f.prepareBlock()
	f.r, f.rowMeta = NewForms(r).rowInt8()
}
