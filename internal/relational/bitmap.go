package relational

import "math/bits"

// Bitmap is a fixed-size bitset over row ids. Vector indexes consume
// bitmaps as pre-filters (Section IV-B: "pre-filtering techniques are
// employed, where the result set excludes tuples based on the relational
// condition on the fly while still incurring the traversal cost").
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates an empty bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// BitmapFromSelection builds a bitmap over n rows with sel's rows set.
func BitmapFromSelection(n int, sel Selection) *Bitmap {
	b := NewBitmap(n)
	for _, r := range sel {
		b.Set(r)
	}
	return b
}

// Len returns the bitmap domain size.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear unmarks row i.
func (b *Bitmap) Clear(i int) {
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether row i is set. Out-of-range rows are unset.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set rows.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// ToSelection expands the bitmap into an ordered selection vector.
func (b *Bitmap) ToSelection() Selection {
	sel := make(Selection, 0, b.Count())
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sel = append(sel, i)
		}
	}
	return sel
}

// Clone returns an independent copy of b.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}

// GrowClone returns an independent copy of b over a domain of n rows
// (n >= b.Len()); the new rows start unset. The MVCC layer uses this to
// derive a batch's visibility set from its predecessor without touching
// the published version.
func (b *Bitmap) GrowClone(n int) *Bitmap {
	if n < b.n {
		n = b.n
	}
	out := &Bitmap{words: make([]uint64, (n+63)/64), n: n}
	copy(out.words, b.words)
	return out
}
