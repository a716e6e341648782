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
// which each vector lane owns one output column: per k it broadcasts four
// R elements and issues VMULPS then VADDPS against the panel, so every
// lane performs exactly dotSeq's operation sequence (the amd64 compiler
// never fuses a float32 multiply-add on its own). The tile holds a row
// in two YMM registers, or in one ZMM register on hosts that also have
// AVX-512F; both widths run the same operations per lane, so they give
// the same bits, and the 1-3 remainder rows run on YMM. Everywhere
// else — other architectures, amd64 without AVX2, the purego build tag
// — vec.KernelSIMD runs mulBlockUnrolled, a pure-Go 4x2 register tile
// with the same per-cell order, which is also the reference the assembly
// is tested against.
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
//
// # Early exit
//
// The assembly scan tile does not always run its k loop to d. At a
// checkpoint k = 16, 32, ... <= d-16 it forms, for each of its 64 cells,
// ub = acc + a_i*b_j (one VMULPS, one VADDPS) from the partial sum and a
// suffix factor of row r_i and of column s_j, and returns "nothing
// qualifies" if ub < bound[i] in every lane. The compare is ordered, so
// a NaN estimate (an infinite norm against an infinite partial sum)
// keeps the tile; a NaN bound, which nothing reaches, counts as below.
// A tile that goes on continues the same accumulators through the same
// instruction stream, so this is pruning, not approximation: the visited
// set and every visited bit are those of the reference (tileGEPortable,
// which has no checkpoints), and only ScanStats.KStepsSkipped tells the
// two apart. Which checkpoint a tile tests first follows where its
// worker's previous tile stopped, so a scan in which nothing can stop
// (a bound of -Inf) pays for one test per 4-row strip and S block.
//
// Why ub bounds the cell. With u = 2^-24, the factor of a row x at k is
//
//	f(x) = (1+e)*|x[k:]| + sqrt(d*2^-23)*|x| + 2^-60,  e = (32+d/16)*u
//
// with norms summed in float32 (at most 22+d/16 roundings per term, a
// relative loss below e/2; squares that underflow lose at most 2^-65 of
// norm, which the floor absorbs). Let A be the partial sum at k and F
// the finished cell. Every later partial sum is at most (1+u)^d*P in
// magnitude, P the sum of all |r_k*s_k| as rounded, so the d-k remaining
// adds err by at most (d-k)*u*(1+u)^d*P, and by Cauchy-Schwarz
//
//	F <= A + (1+u)*|r[k:]|*|s[k:]| + (d-k)*u*(1+u)^(d+1)*|r|*|s| + d^2*2^-150
//
// (the last term: products that underflow). Dropping cross terms,
// a*b >= (1+e)^2*|r[k:]|*|s[k:]| + 2*d*u*|r|*|s| + 2^-120, and the
// computed ub is at least (A + a*b) - u*(|A| + a*b) with |A| <=
// (1+u)^d*P. For k >= 16 and d <= 2^20 (checkpoints are not placed
// beyond that) 2*d*u exceeds (d-k+1)*u*(1+u)^(d+1) with room for the
// roundings of a*b and of the sum, so ub >= F and ub < bound[i] implies
// F < bound[i]. Rounding is monotone, so a sum that would overflow
// after k makes ub overflow too, and +Inf is never below a bound; NaN
// and infinite components make the factors NaN or +Inf likewise.
// TestScanAboveEarlyExit holds one input per clause: unordered compare,
// missing rounding term, overflowing norm.
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
