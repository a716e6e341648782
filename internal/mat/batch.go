package mat

import (
	"fmt"
	"math"
)

// BatchOptions controls mini-batched (block-decomposed) GEMM execution, the
// mechanism of Section V-B / Figure 7: the |R|×|S| intermediate similarity
// matrix is never materialized whole; instead block pairs of bounded size
// are computed with a reused buffer and handed to a consumer.
type BatchOptions struct {
	// Gemm tunes the per-block computation.
	Gemm GemmOptions
	// BudgetBytes bounds the intermediate block size (4 bytes per FP32).
	// <=0 means unbounded: a single |R|×|S| block ("No Batch" in Fig 13).
	BudgetBytes int64
	// BatchRows/BatchCols explicitly fix the block shape in rows, overriding
	// BudgetBytes when both are >0 (used by the Fig 13 sweep grid).
	BatchRows int
	BatchCols int
}

// BatchShape derives a block shape (rb, sb) such that rb*sb*4 <= budgetBytes,
// preserving the nr:ns aspect ratio so both inputs are partitioned along
// tuple boundaries (never dimensions), per Figure 6.
func BatchShape(nr, ns int, budgetBytes int64) (rb, sb int) {
	if nr <= 0 || ns <= 0 {
		return max(nr, 0), max(ns, 0)
	}
	if budgetBytes <= 0 || int64(nr)*int64(ns)*4 <= budgetBytes {
		return nr, ns
	}
	cells := float64(budgetBytes) / 4
	ratio := float64(nr) / float64(ns)
	rbf := math.Sqrt(cells * ratio)
	sbf := math.Sqrt(cells / ratio)
	rb = clamp(int(rbf), 1, nr)
	sb = clamp(int(sbf), 1, ns)
	// Shrink until within budget (integer rounding can overshoot).
	for int64(rb)*int64(sb)*4 > budgetBytes {
		if rb >= sb && rb > 1 {
			rb--
		} else if sb > 1 {
			sb--
		} else {
			break
		}
	}
	return rb, sb
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BlockVisitor receives one computed similarity block. block aliases an
// internal buffer that is reused for the next block: consumers must
// extract what they need (e.g. qualifying offsets) before returning.
// rOff/sOff are
// the global row offsets of the block's top-left corner (the "batch offsets"
// of Figure 6, step 2).
type BlockVisitor func(block *Matrix, rOff, sOff int) error

// ForEachBlock computes D = r·sᵀ block-wise, invoking fn for every block.
// The peak intermediate memory is one block (plus the inputs), trading
// repeated passes over input panels for bounded footprint exactly as the
// paper's mini-batch formulation does.
func ForEachBlock(r, s *Matrix, opts BatchOptions, fn BlockVisitor) error {
	if r.Cols() != s.Cols() {
		return fmt.Errorf("mat: inner dimensions differ: %d vs %d", r.Cols(), s.Cols())
	}
	nr, ns := r.Rows(), s.Rows()
	if nr == 0 || ns == 0 {
		return nil
	}
	rb, sb := opts.BatchRows, opts.BatchCols
	if rb <= 0 || sb <= 0 {
		rb, sb = BatchShape(nr, ns, opts.BudgetBytes)
	}
	rb = clamp(rb, 1, nr)
	sb = clamp(sb, 1, ns)

	// One reused rb*sb backing slice serves every block. An edge block is
	// a smaller dense matrix over a prefix of it; MulTransposeInto writes
	// every cell, so the buffer's previous contents never show.
	buf := make([]float32, rb*sb)
	var block Matrix
	for rLo := 0; rLo < nr; rLo += rb {
		rHi := rLo + rb
		if rHi > nr {
			rHi = nr
		}
		rBlk := r.Slice(rLo, rHi)
		for sLo := 0; sLo < ns; sLo += sb {
			sHi := sLo + sb
			if sHi > ns {
				sHi = ns
			}
			sBlk := s.Slice(sLo, sHi)
			rows, cols := rHi-rLo, sHi-sLo
			block = Matrix{RowsN: rows, ColsN: cols, Data: buf[:rows*cols]}
			if err := MulTransposeInto(&block, rBlk, sBlk, opts.Gemm); err != nil {
				return err
			}
			if err := fn(&block, rLo, sLo); err != nil {
				return err
			}
		}
	}
	return nil
}

// PeakBlockBytes reports the intermediate buffer size ForEachBlock will use
// for the given inputs and options — the quantity Figure 13 plots as
// "required RAM" relative to the unbatched |R|×|S| matrix.
func PeakBlockBytes(nr, ns int, opts BatchOptions) int64 {
	rb, sb := opts.BatchRows, opts.BatchCols
	if rb <= 0 || sb <= 0 {
		rb, sb = BatchShape(nr, ns, opts.BudgetBytes)
	}
	rb = clamp(rb, 1, max(nr, 1))
	sb = clamp(sb, 1, max(ns, 1))
	return int64(rb) * int64(sb) * 4
}
