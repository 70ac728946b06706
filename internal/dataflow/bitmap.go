package dataflow

import "math/bits"

// Bitmap is a fixed-length selection bitmap over an ordered universe: bit i
// set means element i is selected. It is the word-packed representation
// Dremel-style engines use instead of filtered copies; internal/extract keeps
// its exact candidate sets in it.
//
// The representation invariant is that bits at positions ≥ Len() in the last
// word are always zero. Every mutating operation preserves it (SetAll masks
// the tail word), so Count and ForEach never have to special-case the tail.
// The zero Bitmap has no words and length zero.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-zero bitmap of n bits.
func NewBitmap(n int) Bitmap {
	if n < 0 {
		n = 0
	}
	return Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		panic("dataflow: Bitmap.Set out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (b Bitmap) Clear(i int) {
	if i < 0 || i >= b.n {
		panic("dataflow: Bitmap.Clear out of range")
	}
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic("dataflow: Bitmap.Get out of range")
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetAll sets every bit, masking the tail word so bits past Len stay zero.
func (b Bitmap) SetAll() {
	if b.n == 0 {
		return
	}
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if rem := uint(b.n) & 63; rem != 0 {
		b.words[len(b.words)-1] = (1 << rem) - 1
	}
}

// ClearAll clears every bit.
func (b Bitmap) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// And intersects o into b in place. The lengths must match.
func (b Bitmap) And(o Bitmap) {
	if b.n != o.n {
		panic("dataflow: Bitmap.And length mismatch")
	}
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// Or unions o into b in place. The lengths must match.
func (b Bitmap) Or(o Bitmap) {
	if b.n != o.n {
		panic("dataflow: Bitmap.Or length mismatch")
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// ForEach calls f with each set bit's index, in ascending order.
func (b Bitmap) ForEach(f func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
