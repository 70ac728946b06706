package bloom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Regression for the geometry bug: New derived the hash count k from the
// pre-rounding bit count m while probes run modulo the word-rounded nbits,
// mistuning k most visibly for small n. Geometry must now be internally
// consistent: k == round(nbits/n · ln 2) for the *final* nbits.
func TestGeometryConsistent(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{1, 0.01}, {3, 0.01}, {5, 0.001}, {10, 0.1}, {100, 0.01}, {10000, 0.01},
	} {
		f := New(tc.n, tc.p)
		nbits, k := f.Geometry()
		if nbits%64 != 0 {
			t.Errorf("New(%d, %g): nbits=%d not word-aligned", tc.n, tc.p, nbits)
		}
		want := int(math.Round(float64(nbits) / float64(tc.n) * math.Ln2))
		if want < 1 {
			want = 1
		}
		if want > 16 {
			want = 16
		}
		if k != want {
			t.Errorf("New(%d, %g): k=%d, want %d derived from final nbits=%d", tc.n, tc.p, k, want, nbits)
		}
	}
}

// Empirical false-positive regression at the geometry most affected by the
// old bug: tiny n, where rounding m up to a whole word is a large relative
// change. The measured rate must stay within a small multiple of the target.
func TestFalsePositiveRateSmallN(t *testing.T) {
	for _, n := range []int{2, 5, 17} {
		const p = 0.01
		f := New(n, p)
		rng := rand.New(rand.NewSource(int64(n)))
		inserted := make(map[uint64]bool, n)
		for i := 0; i < n; i++ {
			k := rng.Uint64()
			inserted[k] = true
			f.Add(k)
		}
		fp := 0
		const probes = 200000
		for i := 0; i < probes; i++ {
			k := rng.Uint64()
			if inserted[k] {
				continue
			}
			if f.Test(k) {
				fp++
			}
		}
		if rate := float64(fp) / probes; rate > 3*p {
			t.Errorf("n=%d: false-positive rate %.4f exceeds 3x the %.2f target", n, rate, p)
		}
	}
}

func TestSaturatedAcceptsEverything(t *testing.T) {
	s := Saturated()
	if !s.IsSaturated() {
		t.Fatal("Saturated() not flagged as saturated")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if !s.Test(rng.Uint64()) {
			t.Fatal("saturated filter rejected a key")
		}
	}
	s.Add(42) // no-op, must not panic (no backing bit array)
	if s.Empty() {
		t.Error("saturated filter reports empty")
	}
	if s.FillRatio() != 1 {
		t.Errorf("saturated FillRatio = %g, want 1", s.FillRatio())
	}
	if s.Bytes() != 0 {
		t.Errorf("saturated Bytes = %d, want 0", s.Bytes())
	}
}

// Regression for the saturation geometry hazard: Saturated() used to return
// an 8-byte all-ones filter, so Union/Intersect against any standard-geometry
// filter panicked inside a worker stage (the RDFind-NF frequent-conditions
// path, internal/core/minimalfirst.go). Saturation must combine with any
// geometry: union is absorbing, intersection is the identity.
func TestSaturatedCombinesWithAnyGeometry(t *testing.T) {
	std := New(100000, 0.01) // deliberately large, unlike the old 8-byte stub
	for i := uint64(0); i < 50; i++ {
		std.Add(i)
	}

	// Union with a saturated filter saturates, regardless of geometry.
	u := std.Clone()
	u.Union(Saturated())
	if !u.IsSaturated() || !u.Test(999999) {
		t.Error("union with saturated filter did not saturate")
	}

	// Union onto a saturated filter is a no-op.
	s := Saturated()
	s.Union(std)
	if !s.IsSaturated() {
		t.Error("saturated filter lost saturation on union")
	}

	// Intersect with a saturated filter is the identity.
	i1 := std.Clone()
	i1.Intersect(Saturated())
	for k := uint64(0); k < 50; k++ {
		if !i1.Test(k) {
			t.Fatalf("intersect with saturated filter dropped key %d", k)
		}
	}
	if i1.IsSaturated() {
		t.Error("intersect with saturated filter saturated the receiver")
	}

	// Intersecting a saturated filter with a concrete one adopts the
	// concrete side (universe ∩ S = S), including its geometry.
	i2 := Saturated()
	i2.Intersect(std)
	if i2.IsSaturated() {
		t.Error("saturated receiver still saturated after intersect with concrete filter")
	}
	gotBits, gotHashes := i2.Geometry()
	wantBits, wantHashes := std.Geometry()
	if gotBits != wantBits || gotHashes != wantHashes {
		t.Errorf("adopted geometry (%d,%d), want (%d,%d)", gotBits, gotHashes, wantBits, wantHashes)
	}
	for k := uint64(0); k < 50; k++ {
		if !i2.Test(k) {
			t.Fatalf("adopted filter missing key %d", k)
		}
	}
	i2.Add(12345) // must be independent of std's bit array
	if std.Test(12345) && !std.Test(12346) {
		t.Error("intersect aliased the concrete filter's bit array")
	}

	// Clone preserves saturation.
	if !Saturated().Clone().IsSaturated() {
		t.Error("clone dropped saturation")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	f := New(1000, 0.01)
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	enc := f.AppendBinary(nil)
	got, n, err := FromBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d bytes", n, len(enc))
	}
	gb, gh := got.Geometry()
	fb, fh := f.Geometry()
	if gb != fb || gh != fh {
		t.Errorf("geometry (%d,%d) != original (%d,%d)", gb, gh, fb, fh)
	}
	for _, k := range keys {
		if !got.Test(k) {
			t.Fatalf("round trip lost key %d", k)
		}
	}

	// Saturation survives the round trip, and decoding tracks trailing data.
	enc = Saturated().AppendBinary(nil)
	enc = append(enc, 0xAB, 0xCD)
	got, n, err = FromBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !got.IsSaturated() {
		t.Errorf("saturated round trip: consumed=%d saturated=%v", n, got.IsSaturated())
	}

	// Truncated input errors instead of panicking.
	if _, _, err := FromBinary(nil); err == nil {
		t.Error("no error for empty input")
	}
	full := New(100, 0.01).AppendBinary(nil)
	if _, _, err := FromBinary(full[:len(full)-3]); err == nil {
		t.Error("no error for truncated bit array")
	}
	// A word count whose byte size overflows 64 bits is truncation too.
	huge := binary.AppendUvarint([]byte{0, 4}, 1<<61)
	if _, _, err := FromBinary(append(huge, make([]byte, 16)...)); err == nil {
		t.Error("no error for a word count of 2^61")
	}
}
