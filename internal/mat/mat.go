// Package mat implements the dense linear algebra substrate used by the
// tensor join formulation (paper Section IV-C / V): row-major float32
// matrices and a cache-blocked, parallel similarity GEMM computing
// D = R · Sᵀ block-wise per the Block Matrix Dot Product Decomposition.
//
// The paper uses Intel oneAPI MKL for this role; this package is the
// dependency-free substitute. It implements the same structural
// optimizations that make BLAS fast on this shape: tuple-boundary blocking
// so a block of S rows stays cache-resident while being reused against a
// block of R rows, a register-tiled micro-kernel, and data-parallel
// execution across row panels.
//
// # GEMM contract
//
// Every output cell is the sequential sum, over ascending k, of
// r[k]*s[k] — a multiply rounded to float32, then an add rounded to
// float32, never a fused multiply-add. The cell's bits therefore equal
// dotSeq(r, s) and depend only on its two input vectors: not on the
// matrix shapes, the blocking options, the thread count, slicing, or
// which kernel ran. The shard router and the differential test suites
// rely on this. (NaN cells are NaN on every path; their sign and payload
// are not part of the contract.)
//
// Three kernels honour it. vec.KernelScalar is the plain triple loop.
// vec.KernelSIMD on amd64 hosts with AVX2 (checked once by CPUID/XGETBV)
// packs S into 16-column k-major panels and runs a 4x16 assembly tile in
// which each YMM lane owns one output column: per k it broadcasts four R
// elements and issues VMULPS then VADDPS against the panel, so every lane
// performs exactly dotSeq's operation sequence (the amd64 compiler never
// fuses a float32 multiply-add on its own). Everywhere else — other
// architectures, amd64 without AVX2, the purego build tag —
// vec.KernelSIMD runs mulBlockUnrolled, a pure-Go 4x2 register tile with
// the same per-cell order, which is also the reference the assembly is
// tested against.
//
// # Fused scan
//
// The join operators never need D itself, only the cells at or above a
// bound. ScanAbove runs the same tiles — the assembly tile's twin
// expands the same k loop, the portable build calls the same Go kernels
// on a 4x16 strip — but compares each one with its rows' bounds while it
// is in registers and hands a visitor just the qualifying cells, so no
// part of D is ever stored: every visited similarity carries the GEMM
// contract's bits, the visited set is exactly {(i,j) : dotSeq >= bound[i]},
// and the scan's working memory is one packed S block and one tile per
// worker whatever |R| and |S| are. ForEachBlock, which does materialize
// D block by block, remains for the paper's mini-batch experiments.
package mat

import (
	"fmt"

	"ejoin/internal/vec"
)

// Matrix is a dense row-major float32 matrix. Each row typically holds one
// embedding vector, so Rows is the relation cardinality and Cols the
// embedding dimensionality.
type Matrix struct {
	RowsN int
	ColsN int
	Data  []float32 // len == RowsN*ColsN, row-major
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{RowsN: rows, ColsN: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix whose rows are copies of the given equal-length
// vectors. It returns an error if rows have inconsistent lengths.
func FromRows(rows [][]float32) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	d := len(rows[0])
	m := New(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("mat: row %d has dim %d, want %d", i, len(r), d)
		}
		copy(m.Data[i*d:(i+1)*d], r)
	}
	return m, nil
}

// FromFlat wraps an existing row-major backing slice without copying.
func FromFlat(rows, cols int, data []float32) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("mat: flat data len %d != %d*%d", len(data), rows, cols)
	}
	return &Matrix{RowsN: rows, ColsN: cols, Data: data}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.RowsN }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.ColsN }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.ColsN : (i+1)*m.ColsN : (i+1)*m.ColsN]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.ColsN+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.ColsN+j] = v }

// Slice returns a view of rows [lo, hi) sharing storage with m.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	if lo < 0 || hi > m.RowsN || lo > hi {
		panic(fmt.Sprintf("mat: slice [%d,%d) out of range (rows=%d)", lo, hi, m.RowsN))
	}
	return &Matrix{RowsN: hi - lo, ColsN: m.ColsN, Data: m.Data[lo*m.ColsN : hi*m.ColsN]}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.RowsN, m.ColsN)
	copy(out.Data, m.Data)
	return out
}

// NormalizeRows scales every row to unit L2 norm in place (zero rows are
// left untouched). After normalization, cosine similarity of rows reduces to
// the dot product, which is what lets the join run as a plain GEMM.
func (m *Matrix) NormalizeRows() {
	for i := 0; i < m.RowsN; i++ {
		vec.Normalize(m.Row(i))
	}
}

// RowsNormalized reports whether every row is unit-norm within eps
// (zero rows excluded).
func (m *Matrix) RowsNormalized(eps float32) bool {
	for i := 0; i < m.RowsN; i++ {
		r := m.Row(i)
		if vec.Norm(r) == 0 {
			continue
		}
		if !vec.IsNormalized(r, eps) {
			return false
		}
	}
	return true
}

// SizeBytes returns the backing storage size in bytes (4 bytes per FP32),
// the unit used by the memory-budget computations of Section V-B.
func (m *Matrix) SizeBytes() int64 {
	return int64(len(m.Data)) * 4
}

// Equal reports element-wise equality within eps.
func Equal(a, b *Matrix, eps float32) bool {
	if a.RowsN != b.RowsN || a.ColsN != b.ColsN {
		return false
	}
	return vec.Equal(a.Data, b.Data, eps)
}
