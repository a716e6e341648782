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
// Every output cell is fmaSeq of its two rows: acc = fma(r[k], s[k], acc)
// over ascending k from +0, each step one fused multiply-add rounded once
// to float32 (fma32). The cell's bits therefore equal dotSeq(r, s) and
// depend only on its two input vectors: not on the matrix shapes, the
// blocking options, the thread count, slicing, or which kernel ran. The
// shard router and the differential test suites rely on this. (NaN cells
// are NaN on every path; their sign and payload are not part of the
// contract.) One rounding a step is also what a vendor sgemm on FMA
// hardware computes, and its result differs from two roundings a step by
// far less than the 1e-5 the end-to-end oracle allows a similarity, so
// answers move by no more than that; no stored format holds a product.
//
// Three kernels honour it. vec.KernelScalar is the plain triple loop.
// vec.KernelSIMD on amd64 hosts with AVX2 and FMA (checked once by
// CPUID/XGETBV) packs S into 16-column k-major panels and runs assembly
// tiles in which each vector lane owns one output column: per k they
// broadcast four R elements and issue one VFMADD231PS per accumulator
// against the panel, so every lane performs exactly dotSeq's operation
// sequence. The YMM tile is 4x16, a row in two registers, eight
// accumulators. On hosts that also have AVX-512F the 4-row tile is 4x32
// on ZMM registers instead — two neighbouring panels, eight accumulators,
// enough independent sums to keep both FMA ports busy — and a block's
// odd last panel and the 1-3 remainder rows run on YMM; the same
// operations per lane give the same bits on every width. Everywhere else
// — other architectures, amd64 without AVX2 or FMA, the purego build tag
// — vec.KernelSIMD runs mulBlockUnrolled, a pure-Go 4x2 register tile
// with the same per-cell steps, which is also the reference the assembly
// is tested against. The pure-Go kernels call fma32: one FMADDS on arm64,
// and elsewhere softFMA32, which is exact but several times slower than
// the two roundings it replaced.
//
// # Fused scan
//
// The join operators never need D itself, only the cells at or above a
// bound. ScanAbove runs the same tiles — each assembly tile's twin
// expands the same k loop, the portable build calls the same Go kernels
// on a 4x16 strip — but compares each one with its rows' bounds while it
// is in registers and hands a visitor just the qualifying cells, so no
// part of D is ever stored: every visited similarity carries the GEMM
// contract's bits, the visited set is exactly {(i,j) : dotSeq >= bound[i]},
// and the scan stores one tile per worker whatever |R| and |S| are.
// ForEachBlock, which does materialize D block by block, remains for the
// paper's mini-batch experiments.
//
// # Forms
//
// Besides its F32 rows a scan reads each side in forms derived from
// them: S as 16-column k-major panels, both sides' suffix factors (Early
// exit), and, where the int8 filter runs, both sides' int8 codes with
// each row's scale, L1 factor and code sum (Int8 filter), R in rows and S
// in panels. A Forms holds them for one matrix. Each layout is built the
// first time a scan reads it, then kept until the matrix goes, so a
// matrix that many scans read pays for each once and a scan that never
// runs the int8 filter never builds its codes; they are bit for bit what
// a scan would derive on the fly, which Forms.Verify checks.
//
// The scans take their operands as a Side: runs of rows (Parts), each of
// a matrix with resident Forms and starting at a multiple of 16 rows, so
// at a panel of every layout — an embedded column's chunks, read in
// place — or a plain *Matrix, whose forms each worker derives into
// scratch, for its R rows at the start and for each S block as it comes
// to it. A worker's rows are whole 4-row strips of one part, and an S
// block lies in one part, so every tile reads one part of each side and
// is the tile it would be over the concatenated matrices: the visited
// cells and their bits do not depend on the parts.
//
// # Early exit
//
// The assembly scan tiles do not always run their k loop to d. At a
// checkpoint k = 16, 32, ... <= d-16 a tile forms, for each of its cells
// (64 on YMM, 128 on ZMM), ub = fma(a_i, b_j, acc) from the partial sum
// and a suffix factor of row r_i and of column s_j, and returns "nothing
// qualifies" if ub < bound[i] in every lane of every row and panel. The
// compare is ordered, so a NaN estimate (an infinite norm against an
// infinite partial sum) keeps the tile; a NaN bound, which nothing
// reaches, counts as below. A tile that goes on continues the same
// accumulators through the same instruction stream, so this is pruning,
// not approximation: the visited set and every visited bit are those of
// the reference (tileGEPortable, which has no checkpoints), and only
// ScanStats.KStepsSkipped tells them apart — and the widths from each
// other, since a 4x32 tile stops only where all 128 of its cells can.
// Which checkpoint a tile tests first follows where its worker's previous
// tile stopped, so a scan in which nothing can stop (a bound of -Inf)
// pays for one test per 4-row strip and S block.
//
// Why ub bounds the cell. With u = 2^-24, the factor of a row x at k is
//
//	f(x) = (1+e)*|x[k:]| + sqrt(d*2^-23)*|x| + 2^-60,  e = (32+d/16)*u
//
// with norms summed in float32 (at most 22+d/16 roundings per term, a
// relative loss below e/2; squares that underflow lose at most 2^-65 of
// norm, which the floor absorbs). Let A be the partial sum at k and F
// the finished cell. Each later step rounds r_k*s_k + acc once, exactly
// formed, so it errs by at most u times its result, or 2^-150 if that is
// subnormal. Every later partial sum is at most (1+u)^d*P in magnitude,
// P the sum of all |r_k*s_k|, so the d-k remaining steps err by at most
// (d-k)*(u*(1+u)^d*P + 2^-150), and by Cauchy-Schwarz
//
//	F <= A + |r[k:]|*|s[k:]| + (d-k)*u*(1+u)^d*|r|*|s| + d*2^-150
//
// Dropping cross terms, a*b >= (1+e)^2*|r[k:]|*|s[k:]| + 2*d*u*|r|*|s| +
// 2^-120, and the computed ub, rounded once, is at least (A + a*b) -
// u*(|A| + a*b) with |A| <= (1+u)^d*P. For k >= 16 and d <= 2^20
// (checkpoints are not placed beyond that) 2*d*u exceeds
// (d-k+1)*u*(1+u)^(d+1) with room for the rounding of ub, so ub >= F and
// ub < bound[i] implies F < bound[i]. (These are the factors the
// two-rounding tiles needed, whose bound had (1+u) on the suffix term and
// one more rounding in ub; one rounding a step only tightens the
// inequality, and the factors are kept.) Rounding is monotone, so a sum
// that would overflow after k makes ub overflow too, and +Inf is never
// below a bound; NaN and infinite components make the factors NaN or
// +Inf likewise. TestScanAboveEarlyExit holds one input per clause:
// unordered compare, missing rounding term, overflowing norm, and a
// panel or half panel read with its neighbour's factors.
//
// # Int8 filter
//
// On hosts with AVX-512 VNNI (CPUID leaf 7 ECX bit 11; useInt8) a 4x32
// ZMM tile of the scan is first tested on int8 copies of its rows, and
// only a tile the test cannot rule out runs the F32 tile. This too is
// pruning: a tile that runs is today's tile, so the visited set and its
// bits are the reference's, and only KStepsSkipped, which counts a
// ruled-out tile's steps, tells the two apart. The codes are forms of the
// rows (Forms): taken from an operand's resident forms, built from its
// rows the first time any scan tests one of its tiles and rebuilt only
// for new rows (a chunk that grows, sheds rows or is read back from the
// spill file is a new matrix), or, for a *Matrix, derived by the worker
// for its R rows and each S block the first time it tests a tile of
// them. Per row they are a scale s = fl(max|x|/127), codes
// q = round(x*fl(1/s)) to nearest even, and its float32 L1 norm n. The
// tile sums (q_r + 128)·q_s in int32 with VPDPBUSD, from D − 128·Σq_s
// per column, which makes each cell D + q_r·q_s exactly (|q_r·q_s| <=
// 127²·d, and float32 holds every integer to 2^24, so d <= 1024), and
// keeps cell (i, j) unless
//
//	est = s_i·(s_j·(q_i·q_j + D) + β·n_j) + (β·n_i·s_j + 2^-100) < bound[i]
//
// with D = ceil(d/4) + 1 and β = 1/2 + (d+16)·2^-16, each product and
// sum above fused and rounded once, and the compare ordered after a NaN
// bound is made +Inf: a NaN estimate keeps the cell and nothing reaches
// a NaN bound. A strip whose bounds are all -Inf skips the test. How
// many tiles a block tests adapts to how many it keeps (nextBlock). A
// block's lone last panel is tested as a tile with the zero padding panel
// after it, whose columns the mask leaves out.
//
// On hosts that also have AMX-TILE and AMX-INT8 (useAMX; the package
// asks Linux for the tile state once at start), a block the filter tests
// in full takes its cells from AMX tiles instead (amxKeep), one call for
// up to 16 groups of 16 of a worker's R rows against up to 8 pairs of
// panels. TDPBUSD sums the same products (q_r + 128)·q_s: the R layout's
// rows, d4 bytes apart, are its A tile as they lie, and an S panel's
// groups of four codes by 16 columns are its B tile's VNNI layout, one
// 64-byte K chunk at a time, the last shorter where d4 is not a multiple
// of 64 (its own tile shape: the layouts are not padded). A C tile
// starts from 0, and each column's D − 128·Σq_s is added once the tile is
// stored. Every sum is exact in int32 — TDPBUSD does not saturate, and
// |D + q_r·q_s| < 2^24 for d <= 1024 — so each cell is the integer the
// VPDPBUSD tile computes, and the same three fused steps (CELL_KEEP)
// turn it into the same estimate and mask. A screen first rules out a
// 4-row strip where an upper bound on all its estimates is below its
// rows' least bound (AMX_STRIP); it rules out only strips whose every
// estimate is below its bound, so it changes no mask. The call returns,
// per strip, the pairs some row keeps and whether its bounds are all NaN
// or all -Inf, and the scan walks the kept tiles by bit scan, counting
// the strips that keep none at once; a strip whose visitor changes its
// bounds tests its remaining tiles with int8TileGE against the new ones.
// So every mask, visited cell and ScanStats field is the VPDPBUSD
// tile's: TestAMXMatchesInt8TileGE and FuzzAMXMatchesInt8TileGE hold the
// masks and cells to int8TileGE bit for bit, TestAMXScanMatchesVNNI and
// TestTileWidths the scans. Each call loads its tile configuration
// (LDTILECFG) and releases the tiles (TILERELEASE) before it returns,
// since a goroutine may move to another thread between calls.
//
// Why est >= F, the cell, for x = r_i and y = s_j with scales a and b,
// u = 2^-24, P = Σ|x_k·y_k| and d <= 1024, term by term:
//
//   - Quantizing. a·fl(1/a) = 1 ± u and x·fl(1/a) is rounded once, so
//     |x_k − a·q_k| <= a/2 + 3u·|x_k|; |x_k|·fl(1/a) < 127.5, so no
//     code saturates.
//   - The products. x·y − (a·q_x)·(b·q_y) = e_x·y + x·e_y − e_x·e_y,
//     which the first term bounds by (a/2)·|y|₁ + (b/2)·|x|₁ +
//     d·a·b/4 + 6u·P + (3u/2)·(a·|y|₁ + b·|x|₁) + 9u²·P. The d·a·b/4
//     is D's ceil(d/4); TestInt8FilterHardCases holds a cell that needs
//     it.
//   - fmaSeq. F is within ((1+u)^d − 1)·P + d·2^-150 of x·y.
//   - The norms. n is a float32 sum of d terms, so |x|₁ <= n·(1+d·u),
//     and P <= max|x|·|y|₁ <= 127·(1+u)·a·|y|₁.
//   - The estimate's own four roundings, at most 2.01u of the sum of the
//     magnitudes of its terms, where a·b·|q_x·q_y| <= 127·a·(|y|₁ +
//     d·b/2)·(1+3u), plus 2^-150 an underflow.
//
// Gathered, the coefficient of a·|y|₁ needed is at most 1/2 +
// 128(d+8)u, which β·(1 − (d+4)u) exceeds; that of b·|x|₁ is below
// 1/2 + 3u; that of a·b is d/4 + 128·d·u + 2.01u·D < D; and the floor
// 2^-100 covers every absolute term, (d + a + 3)·2^-150 with a <= 2^33.
// A row the inequality does not cover — a NaN or infinite component or
// L1 norm, or a largest |x| outside [2^-40, 2^40] other than 0, where a
// product could overflow or a scale be subnormal — gets scale 0 and
// factor β·n = +Inf, so each estimate it enters is +Inf or NaN and its
// tiles are kept; a zero row gets scale 0 and factor 0, and its cells
// are exactly 0. FuzzInt8FilterConservative drives the tile on its own
// with rows of raw bit patterns, one-hot, huge, tiny, denormal and
// non-normalized rows and bounds on a cell's refDotSeq, and fails if a
// column with a reaching cell is ruled out.
//
// For the top-k below, the first pass (topKLanes) also forms, from the
// same int32 cells, the mirrored lower estimate
//
//	lo = s_i·(s_j·(q_i·q_j − D) − β·n_j) − (β·n_i·s_j + 2^-100)
//
// from the same int32 cell less 2D (exact, and exact in float32), each
// product and sum fused and rounded once. lo <= F, term by term as for
// est with every sign turned:
//
//   - Quantizing and the products. The same codes bound
//     |x·y − (a·q_x)·(b·q_y)| by the same sum, so x·y is at least
//     (a·q_x)·(b·q_y) less (a/2)·|y|₁ + (b/2)·|x|₁ + d·a·b/4 and the same
//     u terms. With the same sign on both sides each side's error points
//     with the other's and their products add up above the cell, which
//     only D covers; TestInt8FilterHardCases holds that cell too.
//   - fmaSeq. F >= x·y − ((1+u)^d − 1)·P − d·2^-150.
//   - The norms, as for est.
//   - lo's own three roundings, each to nearest, so each may move lo up
//     by as much as est's may move est down: at most 2.01u of the sum of
//     the magnitudes of its terms, plus 2^-150 an underflow.
//
// Gathered, the coefficients lo needs are est's, which β, D and the
// floor exceed. Indeed lo(x, y) = −est(x, −y) bit for bit: −y has codes
// −q_y (rounding to nearest even is odd, and no code saturates) and y's
// scale and norm, each of lo's fused steps is the negation of est's
// (rounding to nearest is odd too), and F(x, −y) = −F(x, y) up to a
// zero's sign. A row or column the inequality does not cover makes lo
// −Inf or NaN, never finite; a NaN cell needs one, since two covered
// rows (|x_k| <= 2^40, d <= 1024) cannot overflow. checkEstimates,
// under the fuzz target and the hard cases, fails if a lower estimate
// exceeds its refDotSeq cell or an upper one falls below it.
//
// # Top-k by candidates
//
// A top-k row's bound starts at -Inf and rises only with the cells it
// has seen, so the int8 filter cannot rule out much of a top-k scan.
// TopKCandidates therefore does not scan in F32 at all. Each worker
// takes its R rows in 16-row groups of their R layout (Forms) and S in
// chunks of its columns, which may span S parts: a part's columns sit
// from a multiple of 32 in the chunk, the columns padding them admitted
// by no row, and a chunk is all of S, so laid out, or topKChunk (2048)
// columns if that is fewer. For each group and chunk it computes the
// group's int32 cells D + q_i·q_j against the chunk into a buffer of 16
// rows of the chunk's width, on AMX tiles where the host has them
// (amxCells: each C tile loaded with its panels' corr in all 16 rows,
// then TDPBUSD per K chunk, then stored), and on VPDPBUSD otherwise
// (int8Strip, the filter's k loop): the same integers, exact in int32.
// Two passes read them:
//
//   - The first (topKLanes) keeps, per row, the largest lower estimate
//     in each of 32 lanes (column mod 32) over the columns keepCol admits;
//     a NaN estimate never raises a lane, and a lane with none is -Inf.
//     It then raises the row's kth, which starts at its bound, to the
//     k-th largest lane. The k top lanes are k distinct cells, each at
//     least its lower estimate and none NaN (a NaN cell's lower estimate
//     is NaN or -Inf), so kth is at most the row's k-th best: the lane
//     lemma. A -Inf lane raises nothing, so a row with fewer than k
//     admitted columns keeps its bound. The lanes carry from chunk to
//     chunk, so a row's kth after the last chunk is the k-th largest of
//     its lanes over all of S.
//   - The second (topKList) lists, row by row in ascending column, every
//     admitted cell whose upper estimate is not below its row's kth or
//     is NaN (a NaN kth, which no live row has, is made +Inf). It compares
//     a row's pairs of panels without a branch first, then lists only
//     the pairs that hold a listed cell.
//
// Rows whose bound is NaN, and rows of a group the worker does not own,
// are never live: no pass reads them, and a group with none live is not
// computed. ctx is polled before each group's passes over each chunk. A
// cell listed under an earlier chunk's, lower kth is cut to the final
// kth once, before the re-score (a list far longer than a chunk's cells
// is cut, and then re-scored, early). Only the listed cells are
// computed in F32, by dotPairs, one cell a lane: sixteen k-steps at a
// time it loads the sixteen rows' elements of each side and transposes
// them in registers, the last d%16 steps it gathers them, so each cell
// is fmaSeq's bits. A call's sixteen cells are of one R run and one S
// part, and the cells are visited part by part in list order, so each
// row's cells arrive in ascending j. A cell among the row's k best
// reaches the final kth, which is at most the k-th best, and its upper
// estimate is at least the cell, so it is listed and survives the cut:
// a consumer that keeps the k best of what it is handed, ties to the
// earlier arrival, ends with exactly the scan's answer, ties to the
// lower j. ScanStats counts the whole product's k-steps, and as skipped
// all but d per 16 re-scored cells; Blocks counts the chunks a worker
// took; Int8Tiles counts, in 4x32 tiles, the strips with a live row
// times the pairs of panels with an admitted column, Int8RuledOut those
// of them that listed no cell, and Rescored the cells computed in F32
// (EXPLAIN ANALYZE's int8_tiles, int8_ruled_out and rescored). The
// kernels' Go forms (int8_portable.go, every fused step through fma32)
// are their contracts written out: the assembly is held to them bit for
// bit (checkEstimates, under FuzzInt8FilterConservative), and a build
// without the assembly runs the top-k on them when its tests switch
// useInt8 on (topKForm "Go"), so TestTopKCandidates and
// FuzzTopKCandidatesEqualsReference run there too.
// TopKCandidatesOn says where it runs: the SIMD kernel on hosts with the
// int8 filter, every worker at least int8MinRows R rows, at least
// int8MinCols S rows, and k <= 8; FuzzTopKCandidatesEqualsReference and
// TestTopKCandidates hold it to the reference with the floors lowered,
// on every form of the cells the host has, with the same cells and
// ScanStats on each.
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
