package extract

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bloom"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
)

// Wire-parity tests for the bitmap candidate-set representation
// (Config.BitmapSets): a bitmap set must encode through candSetCodec to the
// same logical value as the map set holding the same captures, the bitmap
// encoding must be byte-deterministic, and mergeCandSets must intersect
// correctly across every mixed representation pairing — these are the
// invariants that let the spill path and the cluster collective frames carry
// either representation interchangeably.

// bitsSet builds a bitmap candSet over the given universe with exactly the
// live captures selected, the way ext/candidates-exact builds them.
func bitsSet(universe []cind.Capture, live ...cind.Capture) *candSet {
	refs := sortedUniverse(universe, AnyArity)
	bits := dataflow.NewBitmap(len(refs))
	for _, c := range live {
		i := searchCapture(refs, c)
		if i >= len(refs) || refs[i] != c {
			panic("bitsSet: live capture not in universe")
		}
		bits.Set(i)
	}
	return &candSet{refs: refs, bits: bits, count: 1}
}

func mapSet(live ...cind.Capture) *candSet {
	m := map[cind.Capture]struct{}{}
	for _, c := range live {
		m[c] = struct{}{}
	}
	return &candSet{exact: m, count: 1}
}

func liveMap(cs *candSet) map[cind.Capture]struct{} {
	m := map[cind.Capture]struct{}{}
	cs.liveRefs(func(c cind.Capture) { m[c] = struct{}{} })
	return m
}

// TestCandSetCodecBitmapMapParity: a bitmap set and a map set holding the
// same live captures decode to the same exact set through the spill/wire
// codec, and the bitmap encoding (sorted universe order) is deterministic —
// two encodings of the same set are byte-identical.
func TestCandSetCodecBitmapMapParity(t *testing.T) {
	var universe []cind.Capture
	for v := rdf.Value(0); v < 9; v++ {
		universe = append(universe, cap(rdf.Subject, cind.Unary(rdf.Predicate, v)))
	}
	live := []cind.Capture{universe[0], universe[3], universe[4], universe[8]}

	codec := candSetCodec{}
	bm := bitsSet(universe, live...)
	mp := mapSet(live...)

	encBits := codec.AppendValue(nil, bm)
	encMap := codec.AppendValue(nil, mp)

	decBits := codec.DecodeValue(encBits)
	decMap := codec.DecodeValue(encMap)
	// Decoding always yields the map form; both representations must decode
	// to the same live set with the same bookkeeping.
	if decBits.refs != nil {
		t.Error("decoded bitmap set still carries a universe (should be map form)")
	}
	if !reflect.DeepEqual(decBits.exact, decMap.exact) {
		t.Errorf("decoded sets differ:\nbitmap: %v\nmap:    %v", decBits.exact, decMap.exact)
	}
	if !reflect.DeepEqual(liveMap(bm), decBits.exact) {
		t.Errorf("bitmap round-trip lost captures: %v vs %v", liveMap(bm), decBits.exact)
	}
	if decBits.count != 1 || decBits.lineage || decBits.approx != nil {
		t.Errorf("bitmap round-trip bookkeeping: %+v", decBits)
	}

	// Bitmap encodings are deterministic (sorted universe order), so repeated
	// encodings — and encodings of an independently built equal set — are
	// byte-identical. Map encodings make no such promise (map order).
	if again := codec.AppendValue(nil, bm); !bytes.Equal(encBits, again) {
		t.Error("re-encoding the same bitmap set produced different bytes")
	}
	rebuilt := bitsSet(universe, live[3], live[1], live[0], live[2])
	if enc := codec.AppendValue(nil, rebuilt); !bytes.Equal(encBits, enc) {
		t.Error("equal bitmap sets encoded to different bytes")
	}

	// All-cleared bitmap (every candidate refuted): encodes as an empty exact
	// set, still flagged exact so the decode keeps it distinguishable from a
	// pure-Bloom set.
	empty := bitsSet(universe)
	dec := codec.DecodeValue(codec.AppendValue(nil, empty))
	if dec.exact == nil || len(dec.exact) != 0 {
		t.Errorf("empty bitmap set decoded to %+v, want empty exact map", dec)
	}
}

// TestMergeCandSetsBitmap covers the bitmap arms of Algorithm 3's merge:
// bits x bits, bits x map, bits x bloom (and the swapped orders), with
// count/lineage bookkeeping and no mutation of the shared universe slice.
func TestMergeCandSetsBitmap(t *testing.T) {
	mk := func(v rdf.Value) cind.Capture { return cap(rdf.Subject, cind.Unary(rdf.Predicate, v)) }
	c1, c2, c3, c4 := mk(1), mk(2), mk(3), mk(4)
	universe := []cind.Capture{c1, c2, c3, c4}

	want := func(t *testing.T, m *candSet, count int, lineage bool, caps ...cind.Capture) {
		t.Helper()
		if m.count != count || m.lineage != lineage {
			t.Errorf("merge bookkeeping: count=%d lineage=%v, want %d/%v", m.count, m.lineage, count, lineage)
		}
		if got, exp := liveMap(m), liveMap(mapSet(caps...)); !reflect.DeepEqual(got, exp) {
			t.Errorf("merge kept %v, want %v", got, exp)
		}
	}

	// bits ∩ bits over the same universe.
	want(t, mergeCandSets(bitsSet(universe, c1, c2, c3), bitsSet(universe, c2, c3, c4)), 2, false, c2, c3)

	// bits ∩ bits over different universes (groups met in the reduce).
	other := []cind.Capture{c2, c3}
	want(t, mergeCandSets(bitsSet(universe, c1, c2), bitsSet(other, c2, c3)), 2, false, c2)

	// bits ∩ map, both orders.
	want(t, mergeCandSets(bitsSet(universe, c1, c2, c4), mapSet(c2, c3, c4)), 2, false, c2, c4)
	want(t, mergeCandSets(mapSet(c2, c3, c4), bitsSet(universe, c1, c2, c4)), 2, false, c2, c4)

	// bits ∩ bloom: true members survive the probe, lineage is inherited.
	f := bloom.NewBytes(64, 4)
	f.Add(c2.Key())
	blm := &candSet{approx: f, count: 1, lineage: true}
	m := mergeCandSets(bitsSet(universe, c1, c2), blm)
	if !m.lineage || m.count != 2 {
		t.Errorf("bits/bloom bookkeeping: %+v", m)
	}
	if !m.containsRef(c2) {
		t.Error("bits/bloom merge dropped a true member")
	}

	// The shared universe slice is never mutated: siblings of the same group
	// keep their own selections after one dependent's merge clears bits.
	shared := sortedUniverse(universe, AnyArity)
	depA := &candSet{refs: shared, bits: dataflow.NewBitmap(len(shared)), count: 1}
	depA.bits.SetAll()
	depB := &candSet{refs: shared, bits: dataflow.NewBitmap(len(shared)), count: 1}
	depB.bits.SetAll()
	before := append([]cind.Capture(nil), shared...)
	mergeCandSets(depA, mapSet(c1))
	if !reflect.DeepEqual(shared, before) {
		t.Error("merge reordered the shared universe slice")
	}
	if depB.bits.Count() != len(shared) {
		t.Error("merging one dependent cleared a sibling's bits")
	}

	// bits ∩ bits on seeded random universe pairs of every relative shape,
	// with bits cleared on both sides: the merge that walks the two sorted
	// universes together keeps what intersecting the map forms keeps, and
	// writes to neither universe nor to a sibling's selection.
	rng := rand.New(rand.NewSource(3))
	pool := capturePool(6000)
	pick := func(from []cind.Capture, n int) []cind.Capture {
		out := make([]cind.Capture, 0, n)
		for _, i := range rng.Perm(len(from))[:n] {
			out = append(out, from[i])
		}
		return out
	}
	nested := pick(pool, 900)
	for _, shape := range []struct {
		name string
		a, b []cind.Capture
	}{
		{"disjoint", pool[:300], pool[300:700]},
		{"identical", pool[:500], pool[:500]},
		{"nested", nested[:200], nested},
		{"empty", nil, pick(pool, 100)},
		{"both empty", nil, nil},
		{"single in", pool[7:8], pool[:64]},
		{"single out", pool[100:101], pool[:64]},
		{"overlapping", pick(pool[:1500], 700), pick(pool[:1500], 700)},
		{"a much smaller", pick(pool, 16), pick(pool, 4096)},
		{"a much larger", pick(pool, 4096), pick(pool, 16)},
		{"small inside large", pool[2000:2016], pool},
	} {
		for _, live := range [][2]float64{{1, 1}, {0.5, 1}, {1, 0.1}, {0.3, 0.7}, {0, 1}} {
			t.Run(fmt.Sprintf("%s/%v", shape.name, live), func(t *testing.T) {
				some := func(u []cind.Capture, share float64) []cind.Capture {
					var out []cind.Capture
					for _, c := range u {
						if rng.Float64() < share {
							out = append(out, c)
						}
					}
					return out
				}
				liveA, liveB := some(shape.a, live[0]), some(shape.b, live[1])
				a, b := bitsSet(shape.a, liveA...), bitsSet(shape.b, liveB...)
				sibA := &candSet{refs: a.refs, bits: dataflow.NewBitmap(len(a.refs)), count: 1}
				sibB := &candSet{refs: b.refs, bits: dataflow.NewBitmap(len(b.refs)), count: 1}
				sibA.bits.SetAll()
				sibB.bits.SetAll()
				refsA := append([]cind.Capture(nil), a.refs...)
				refsB := append([]cind.Capture(nil), b.refs...)

				exp := liveMap(mergeCandSets(mapSet(liveA...), mapSet(liveB...)))
				got := mergeCandSets(a, b)
				if !reflect.DeepEqual(liveMap(got), exp) {
					t.Errorf("bitmap merge kept %d captures, map merge %d", got.liveLen(), len(exp))
				}
				if got.count != 2 || got.lineage {
					t.Errorf("merge bookkeeping: count=%d lineage=%v", got.count, got.lineage)
				}
				if !slices.Equal(sibA.refs, refsA) || !slices.Equal(sibB.refs, refsB) {
					t.Error("merge wrote to a shared universe slice")
				}
				if sibA.bits.Count() != len(refsA) || sibB.bits.Count() != len(refsB) {
					t.Error("merge cleared a sibling's bits")
				}
			})
		}
	}
}

// capturePool returns n distinct captures in a seeded random order, mixing
// projections and unary and binary conditions so that every field of
// captureLess decides some comparison.
func capturePool(n int) []cind.Capture {
	rng := rand.New(rand.NewSource(29))
	seen := map[cind.Capture]bool{}
	var pool []cind.Capture
	for len(pool) < n {
		proj := rdf.Attr(rng.Intn(3))
		a1, a2 := proj.Others()
		c := cind.Capture{Proj: proj, Cond: cind.Unary(a1, rdf.Value(rng.Intn(100)))}
		switch rng.Intn(3) {
		case 1:
			c.Cond = cind.Unary(a2, rdf.Value(rng.Intn(100)))
		case 2:
			c.Cond = cind.Binary(a1, rdf.Value(rng.Intn(100)), a2, rdf.Value(rng.Intn(100)))
		}
		if !seen[c] {
			seen[c] = true
			pool = append(pool, c)
		}
	}
	return pool
}

// BenchmarkMergeIntoBits times the bitmap x bitmap intersection of a sparse
// (16 live) and a dense (2 048 live) selection with a fully live set over
// another, overlapping 4 096-capture universe: the two ends of what the
// reduce of ext/candidates-exact meets.
func BenchmarkMergeIntoBits(b *testing.B) {
	pool := capturePool(6000)
	other := bitsSet(pool[1904:], pool[1904:]...)
	for _, live := range []int{16, 2048} {
		b.Run(fmt.Sprintf("%dx4096", live), func(b *testing.B) {
			proto := bitsSet(pool[:4096], pool[:live]...)
			a := &candSet{refs: proto.refs, bits: dataflow.NewBitmap(len(proto.refs))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.bits.ClearAll()
				a.bits.Or(proto.bits)
				mergeIntoBits(a, other)
			}
		})
	}
}

// TestBroadCINDsBitmapSetsEquivalence: extraction with bitmap candidate sets
// produces exactly the CINDs (and supports) of the map representation, across
// worker counts and both extraction strategies.
func TestBroadCINDsBitmapSetsEquivalence(t *testing.T) {
	ds := randomDataset(300, 4)
	for _, w := range []int{1, 3} {
		for _, direct := range []bool{false, true} {
			run := func(bitmap bool) map[cind.CIND]bool {
				got, err := BroadCINDs(groupsFromDataset(dataflow.NewContext(w), ds),
					Config{Support: 2, DirectExtraction: direct, BitmapSets: bitmap})
				if err != nil {
					t.Fatalf("w=%d direct=%v bitmap=%v: %v", w, direct, bitmap, err)
				}
				set := map[cind.CIND]bool{}
				for _, c := range got {
					set[c] = true
				}
				return set
			}
			bm, mp := run(true), run(false)
			if !reflect.DeepEqual(bm, mp) {
				t.Errorf("w=%d direct=%v: bitmap sets found %d CINDs, map sets %d",
					w, direct, len(bm), len(mp))
			}
			if len(bm) == 0 {
				t.Errorf("w=%d direct=%v: extraction found nothing (vacuous comparison)", w, direct)
			}
		}
	}
}
