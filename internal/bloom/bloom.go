// Package bloom implements the Bloom filters RDFind relies on: the frequent
// unary/binary condition filters that workers build locally and union by
// bit-wise OR (Fig. 5, steps 3–4 and 8–9), and the fixed-size (64-byte)
// filters that encode the referenced captures of CIND candidate sets from
// dominant capture groups (§7.2).
//
// The filter uses double hashing over a 64-bit FNV-1a digest, the standard
// technique from Kirsch & Mitzenmacher for deriving k index functions from
// two hashes. Keys are 64-bit integers because every object RDFind inserts
// (conditions, captures) has a compact fixed-size encoding.
package bloom

import (
	"encoding/binary"
	"errors"
	"math"
)

// Filter is a fixed-size Bloom filter over uint64 keys. Filters of equal
// geometry can be combined with Union (bit-wise OR, used to merge per-worker
// partial filters) and Intersect (bit-wise AND, used by Algorithm 3 to
// approximate the intersection of two referenced-capture sets).
//
// A filter can also be saturated (see Saturated): it represents the universe,
// accepts every membership probe, and combines with filters of any geometry —
// union with it saturates, intersection with it is the identity.
type Filter struct {
	bits      []uint64
	nbits     uint64
	hashes    int
	saturated bool
}

// New returns a filter sized for the expected number of elements n at the
// given target false-positive probability p. Geometry follows the textbook
// formulas m = -n ln p / (ln 2)^2 and k = m/n ln 2, with k derived from the
// final word-rounded bit count — probes run modulo that rounded size, so
// deriving k from the pre-rounding m would mistune the filter (most visibly
// for small n, where rounding up to whole 64-bit words grows m the most).
func New(n int, p float64) *Filter {
	if n < 1 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	words := (m + 63) / 64
	nbits := words * 64
	k := int(math.Round(float64(nbits) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{
		bits:   make([]uint64, words),
		nbits:  nbits,
		hashes: k,
	}
}

// NewBytes returns a filter occupying exactly size bytes with k hash
// functions. RDFind uses 64-byte filters for candidate sets of dominant
// capture groups (§7.2: "k = 64 bytes yields the best performance").
func NewBytes(size, k int) *Filter {
	if size < 8 {
		size = 8
	}
	if k < 1 {
		k = 1
	}
	words := (size + 7) / 8
	return &Filter{
		bits:   make([]uint64, words),
		nbits:  uint64(words) * 64,
		hashes: k,
	}
}

// fnv64a hashes a 64-bit key byte by byte with FNV-1a.
func fnv64a(key uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= key & 0xFF
		h *= prime
		key >>= 8
	}
	return h
}

// indexes derives the i-th probe position via double hashing.
func (f *Filter) index(h1, h2 uint64, i int) uint64 {
	return (h1 + uint64(i)*h2) % f.nbits
}

// split derives two independent hash values from one key.
func split(key uint64) (uint64, uint64) {
	h := fnv64a(key)
	h2 := h>>33 | h<<31 // rotate to decorrelate
	if h2 == 0 {
		h2 = 0x9E3779B97F4A7C15
	}
	return h, h2 | 1 // odd step so all positions are reachable
}

// Add inserts key into the filter. A saturated filter already contains
// everything, so inserting is a no-op.
func (f *Filter) Add(key uint64) {
	if f.saturated {
		return
	}
	h1, h2 := split(key)
	for i := 0; i < f.hashes; i++ {
		idx := f.index(h1, h2, i)
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// Test reports whether key may have been inserted. False positives are
// possible; false negatives are not. A saturated filter accepts every key.
func (f *Filter) Test(key uint64) bool {
	if f.saturated {
		return true
	}
	h1, h2 := split(key)
	for i := 0; i < f.hashes; i++ {
		idx := f.index(h1, h2, i)
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Union ORs other into f. Non-saturated filters must share geometry, which
// holds by construction for the per-worker partial filters RDFind merges.
// Saturation is absorbing: a union involving a saturated filter is saturated,
// regardless of the other side's geometry.
func (f *Filter) Union(other *Filter) {
	if other == nil || f.saturated {
		return
	}
	if other.saturated {
		f.saturated = true
		f.bits = nil
		return
	}
	if f.nbits != other.nbits || f.hashes != other.hashes {
		panic("bloom: union of filters with different geometry")
	}
	for i, w := range other.bits {
		f.bits[i] |= w
	}
}

// Intersect ANDs other into f, approximating the intersection of the two
// represented sets (Algorithm 3, case of two approximate candidate sets).
// The result can over-approximate the true intersection but never drops a
// common element. Saturation is the identity: intersecting with a saturated
// filter leaves the other side unchanged (adopting its geometry when f
// itself was saturated), regardless of geometry.
func (f *Filter) Intersect(other *Filter) {
	if other.saturated {
		return
	}
	if f.saturated {
		f.saturated = false
		f.nbits = other.nbits
		f.hashes = other.hashes
		f.bits = append([]uint64(nil), other.bits...)
		return
	}
	if f.nbits != other.nbits || f.hashes != other.hashes {
		panic("bloom: intersect of filters with different geometry")
	}
	for i, w := range other.bits {
		f.bits[i] &= w
	}
}

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	c := &Filter{bits: make([]uint64, len(f.bits)), nbits: f.nbits, hashes: f.hashes, saturated: f.saturated}
	copy(c.bits, f.bits)
	return c
}

// Saturated returns a filter representing the universe: every membership
// probe succeeds and it combines with filters of any geometry (see Union and
// Intersect). RDFind-NF uses it to treat every condition as frequent.
func Saturated() *Filter {
	return &Filter{saturated: true}
}

// IsSaturated reports whether the filter is the explicit universe filter.
func (f *Filter) IsSaturated() bool { return f.saturated }

// Empty reports whether no bit is set. A saturated filter is never empty.
func (f *Filter) Empty() bool {
	if f.saturated {
		return false
	}
	for _, w := range f.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bytes returns the size of the bit array in bytes (zero for the saturated
// filter, which carries no bit array).
func (f *Filter) Bytes() int { return len(f.bits) * 8 }

// Geometry returns the filter's bit count and hash count, for tests and
// diagnostics. The saturated filter reports a zero geometry.
func (f *Filter) Geometry() (nbits uint64, hashes int) { return f.nbits, f.hashes }

// FillRatio returns the fraction of set bits, a diagnostic for saturation.
// The explicit saturated filter reports 1.
func (f *Filter) FillRatio() float64 {
	if f.saturated {
		return 1
	}
	set := 0
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.nbits)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Wire flags of the binary encoding.
const flagSaturated = 1

// AppendBinary serializes the filter: one flag byte, then (for non-saturated
// filters) the hash count, word count, and words as unsigned varints /
// little-endian 64-bit words. The saturated state survives the round trip,
// so a spilled candidate set can carry a universe filter.
func (f *Filter) AppendBinary(dst []byte) []byte {
	if f.saturated {
		return append(dst, flagSaturated)
	}
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(f.hashes))
	dst = binary.AppendUvarint(dst, uint64(len(f.bits)))
	for _, w := range f.bits {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// FromBinary deserializes a filter written by AppendBinary and returns it
// together with the number of bytes consumed.
func FromBinary(src []byte) (*Filter, int, error) {
	if len(src) < 1 {
		return nil, 0, errors.New("bloom: truncated filter encoding")
	}
	if src[0]&flagSaturated != 0 {
		return Saturated(), 1, nil
	}
	off := 1
	hashes, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return nil, 0, errors.New("bloom: bad hash count")
	}
	off += n
	words, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return nil, 0, errors.New("bloom: bad word count")
	}
	off += n
	if words > uint64(len(src)-off)/8 {
		return nil, 0, errors.New("bloom: truncated bit array")
	}
	f := &Filter{bits: make([]uint64, words), nbits: words * 64, hashes: int(hashes)}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(src[off:])
		off += 8
	}
	return f, off, nil
}
