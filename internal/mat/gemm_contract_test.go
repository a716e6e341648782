package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

// checkCells asserts the GEMM contract on every cell of got = r·sᵀ: the
// bit pattern equals dotSeq's over the same two rows. A NaN's sign and
// payload depend on operand order, so NaN cells only have to be NaN.
func checkCells(t *testing.T, got, r, s *Matrix) {
	t.Helper()
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < s.Rows(); j++ {
			want, have := dotSeq(r.Row(i), s.Row(j)), got.At(i, j)
			if want != want {
				if have == have {
					t.Fatalf("cell (%d,%d): got %v, want NaN", i, j, have)
				}
				continue
			}
			if math.Float32bits(have) != math.Float32bits(want) {
				t.Fatalf("cell (%d,%d): got %v (%#08x), want %v (%#08x)",
					i, j, have, math.Float32bits(have), want, math.Float32bits(want))
			}
		}
	}
}

// TestGemmBitIdenticalShapes straddles every tiling edge: the 4-row
// tile, the 16-column panel and its zero-padded tail, the 64-row block,
// and k counts around the 8-lane width.
func TestGemmBitIdenticalShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, nr := range []int{1, 3, 4, 5, 63, 64, 65} {
		for _, ns := range []int{1, 15, 16, 17, 31, 33} {
			for _, d := range []int{0, 1, 7, 8, 100, 129} {
				r, s := randomMatrix(rng, nr, d), randomMatrix(rng, ns, d)
				for _, k := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
					for _, threads := range []int{1, 2} {
						got, err := MulTranspose(r, s, GemmOptions{Threads: threads, Kernel: k})
						if err != nil {
							t.Fatal(err)
						}
						checkCells(t, got, r, s)
					}
				}
			}
		}
	}
}

// TestGemmBlockingDoesNotChangeBits varies the cache-blocking options,
// including block widths that are not a multiple of the panel width.
func TestGemmBlockingDoesNotChangeBits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r, s := randomMatrix(rng, 37, 33), randomMatrix(rng, 41, 33)
	for _, blk := range [][2]int{{1, 1}, {3, 5}, {16, 16}, {7, 40}, {64, 24}} {
		got, err := MulTranspose(r, s, GemmOptions{Threads: 2, Kernel: vec.KernelSIMD, BlockRows: blk[0], BlockCols: blk[1]})
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, got, r, s)
	}
}

// TestGemmSlicedInputsBitIdentical: views into a larger matrix — row
// slices and backing slices starting at odd element offsets, so no
// operand is 32-byte aligned — give the same bits as the whole product.
func TestGemmSlicedInputsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const d = 7
	r, s := randomMatrix(rng, 70, d), randomMatrix(rng, 70, d)
	opts := GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}
	whole, err := MulTranspose(r, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ rLo, rHi, sLo, sHi int }{
		{0, 70, 0, 70}, {3, 68, 5, 38}, {1, 2, 69, 70}, {9, 14, 1, 18},
	} {
		rv, sv := r.Slice(c.rLo, c.rHi), s.Slice(c.sLo, c.sHi)
		// dst is itself a view at an odd offset into a larger buffer.
		backing := make([]float32, rv.Rows()*sv.Rows()+3)
		dst, err := FromFlat(rv.Rows(), sv.Rows(), backing[3:])
		if err != nil {
			t.Fatal(err)
		}
		if err := MulTransposeInto(dst, rv, sv, opts); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < dst.Rows(); i++ {
			for j := 0; j < dst.Cols(); j++ {
				got, want := dst.At(i, j), whole.At(c.rLo+i, c.sLo+j)
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("slice %+v cell (%d,%d): got %#08x, whole has %#08x",
						c, i, j, math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}
}

// FuzzGemmBitIdentical builds both inputs from arbitrary float32 bit
// patterns (denormals, infinities and NaNs included) and holds every
// cell to the contract.
func FuzzGemmBitIdentical(f *testing.F) {
	f.Add(uint8(5), uint8(17), uint8(9), []byte{0, 0, 128, 63, 0, 0, 0, 192, 205, 204, 76, 62})
	f.Add(uint8(4), uint8(16), uint8(8), []byte{1, 0, 0, 0, 0, 0, 128, 127, 255, 255, 127, 127, 0, 0, 128, 255})
	f.Add(uint8(66), uint8(33), uint8(100), []byte{219, 15, 73, 64, 84, 248, 45, 192, 0, 0, 192, 127, 3})
	f.Fuzz(func(t *testing.T, nr, ns, d uint8, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		word := 0
		fill := func(rows, cols int) *Matrix {
			m := New(rows, cols)
			for i := range m.Data {
				// Walk the input byte-wise so consecutive values overlap
				// and short inputs still give varied vectors.
				off := word % (len(data) - 3)
				m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
				word += 3
			}
			return m
		}
		r, s := fill(int(nr)%70+1, int(d)%131+1), fill(int(ns)%70+1, int(d)%131+1)
		got, err := MulTranspose(r, s, GemmOptions{Threads: 1, Kernel: vec.KernelSIMD})
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, got, r, s)
	})
}
