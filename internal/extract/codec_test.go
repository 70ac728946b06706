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

// Tests for the bitmap candidate-set representation against a map-backed
// reference (refSet): a bitmap set must round-trip through candSetCodec to
// the live captures the reference holds, its encoding must be
// byte-deterministic, and mergeCandSets must keep exactly what intersecting
// the references keeps.

// refSet is the reference representation of an exact candidate set.
type refSet map[cind.Capture]struct{}

func mapSet(live ...cind.Capture) refSet {
	m := refSet{}
	for _, c := range live {
		m[c] = struct{}{}
	}
	return m
}

// intersect is the reference merge: the captures in both sets.
func (a refSet) intersect(b refSet) refSet {
	out := refSet{}
	for c := range a {
		if _, ok := b[c]; ok {
			out[c] = struct{}{}
		}
	}
	return out
}

// bitsSet builds a bitmap candSet over the given universe (put into capture
// order first) with exactly the live captures selected, the way
// ext/candidates-exact builds them.
func bitsSet(universe []cind.Capture, live ...cind.Capture) *candSet {
	refs := append([]cind.Capture{}, universe...) // non-nil even when empty: an exact set
	slices.SortFunc(refs, cind.CompareCaptures)
	bits := dataflow.NewBitmap(len(refs))
	for _, c := range live {
		i, ok := slices.BinarySearchFunc(refs, c, cind.CompareCaptures)
		if !ok {
			panic("bitsSet: live capture not in universe")
		}
		bits.Set(i)
	}
	return &candSet{refs: refs, bits: bits, count: 1}
}

func liveMap(cs *candSet) refSet {
	m := refSet{}
	cs.liveRefs(func(c cind.Capture) { m[c] = struct{}{} })
	return m
}

// TestCandSetCodecBitmapMapParity: a bitmap set decodes through the
// spill/wire codec to the live captures the map reference holds, and the
// encoding (capture order) is deterministic — two encodings of the same set
// are byte-identical.
func TestCandSetCodecBitmapMapParity(t *testing.T) {
	var universe []cind.Capture
	for v := rdf.Value(0); v < 9; v++ {
		universe = append(universe, cap(rdf.Subject, cind.Unary(rdf.Predicate, v)))
	}
	live := []cind.Capture{universe[0], universe[3], universe[4], universe[8]}

	codec := candSetCodec{}
	bm := bitsSet(universe, live...)
	enc := codec.AppendValue(nil, bm)
	dec := codec.DecodeValue(enc)
	if !reflect.DeepEqual(liveMap(dec), mapSet(live...)) {
		t.Errorf("round-trip kept %v, want %v", liveMap(dec), mapSet(live...))
	}
	// A decoded set owns a fresh universe of just its live captures, still in
	// capture order, so later merges may clear its bits freely.
	if !slices.Equal(dec.refs, live) || dec.liveLen() != len(live) {
		t.Errorf("decoded universe %v with %d live, want %v all live", dec.refs, dec.liveLen(), live)
	}
	if dec.count != 1 || dec.lineage || dec.approx != nil {
		t.Errorf("round-trip bookkeeping: %+v", dec)
	}

	// Repeated encodings — and encodings of an independently built equal set
	// — are byte-identical.
	if again := codec.AppendValue(nil, bm); !bytes.Equal(enc, again) {
		t.Error("re-encoding the same bitmap set produced different bytes")
	}
	rebuilt := bitsSet(universe, live[3], live[1], live[0], live[2])
	if other := codec.AppendValue(nil, rebuilt); !bytes.Equal(enc, other) {
		t.Error("equal bitmap sets encoded to different bytes")
	}

	// All-cleared bitmap (every candidate refuted): encodes as an empty exact
	// set, still flagged exact so the decode keeps it distinguishable from a
	// pure-Bloom set.
	empty := codec.DecodeValue(codec.AppendValue(nil, bitsSet(universe)))
	if !empty.hasExact() || empty.liveLen() != 0 {
		t.Errorf("empty bitmap set decoded to %+v, want an empty exact set", empty)
	}
}

// TestMergeCandSetsBitmap covers the exact arms of Algorithm 3's merge against
// the map reference: bits x bits, a decoded set on either side, bits x bloom,
// with count/lineage bookkeeping and no mutation of the shared universe slice.
func TestMergeCandSetsBitmap(t *testing.T) {
	mk := func(v rdf.Value) cind.Capture { return cap(rdf.Subject, cind.Unary(rdf.Predicate, v)) }
	c1, c2, c3, c4 := mk(1), mk(2), mk(3), mk(4)
	universe := []cind.Capture{c1, c2, c3, c4}

	want := func(t *testing.T, m *candSet, count int, lineage bool, caps ...cind.Capture) {
		t.Helper()
		if m.count != count || m.lineage != lineage {
			t.Errorf("merge bookkeeping: count=%d lineage=%v, want %d/%v", m.count, m.lineage, count, lineage)
		}
		if got, exp := liveMap(m), mapSet(caps...); !reflect.DeepEqual(got, exp) {
			t.Errorf("merge kept %v, want %v", got, exp)
		}
	}

	// bits ∩ bits over the same universe.
	want(t, mergeCandSets(bitsSet(universe, c1, c2, c3), bitsSet(universe, c2, c3, c4)), 2, false, c2, c3)

	// bits ∩ bits over different universes (groups met in the reduce).
	other := []cind.Capture{c2, c3}
	want(t, mergeCandSets(bitsSet(universe, c1, c2), bitsSet(other, c2, c3)), 2, false, c2)

	// bits ∩ a set that crossed the spill/wire codec, both orders.
	decoded := func() *candSet {
		return candSetCodec{}.DecodeValue(candSetCodec{}.AppendValue(nil, bitsSet(universe, c2, c3, c4)))
	}
	want(t, mergeCandSets(bitsSet(universe, c1, c2, c4), decoded()), 2, false, c2, c4)
	want(t, mergeCandSets(decoded(), bitsSet(universe, c1, c2, c4)), 2, false, c2, c4)

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
	shared := slices.Clone(universe)
	depA := &candSet{refs: shared, bits: dataflow.NewBitmap(len(shared)), count: 1}
	depA.bits.SetAll()
	depB := &candSet{refs: shared, bits: dataflow.NewBitmap(len(shared)), count: 1}
	depB.bits.SetAll()
	before := append([]cind.Capture(nil), shared...)
	mergeCandSets(depA, bitsSet(universe, c1))
	if !reflect.DeepEqual(shared, before) {
		t.Error("merge reordered the shared universe slice")
	}
	if depB.bits.Count() != len(shared) {
		t.Error("merging one dependent cleared a sibling's bits")
	}

	// bits ∩ bits on seeded random universe pairs of every relative shape,
	// with bits cleared on both sides: the merge that walks the two sorted
	// universes together keeps what intersecting the map references keeps, and
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

				exp := mapSet(liveA...).intersect(mapSet(liveB...))
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
// projections and unary and binary conditions so that every field of the
// capture order decides some comparison.
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

// TestBroadCINDsMatchMapReference: extraction with bitmap candidate sets
// produces exactly the CINDs (and supports) of a map-backed reference that
// intersects, per dependent capture, the groups it occurs in — across worker
// counts and both extraction strategies.
func TestBroadCINDsMatchMapReference(t *testing.T) {
	ds := randomDataset(300, 4)
	const h = 2
	cands, count := map[cind.Capture]refSet{}, map[cind.Capture]int{}
	for _, g := range dataflow.Collect(groupsFromDataset(dataflow.NewContext(1), ds)) {
		members := mapSet(g.Captures...)
		for _, dep := range g.Captures {
			if count[dep]++; count[dep] > 1 {
				cands[dep] = cands[dep].intersect(members)
			} else {
				cands[dep] = members
			}
		}
	}
	want := map[cind.CIND]bool{}
	for dep, refs := range cands {
		for r := range refs {
			if r != dep && count[dep] >= h {
				want[cind.CIND{Inclusion: cind.Inclusion{Dep: dep, Ref: r}, Support: count[dep]}] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("reference extraction found nothing (vacuous comparison)")
	}
	for _, w := range []int{1, 3} {
		for _, direct := range []bool{false, true} {
			broad, err := BroadCINDs(groupsFromDataset(dataflow.NewContext(w), ds),
				Config{Support: h, DirectExtraction: direct})
			if err != nil {
				t.Fatalf("w=%d direct=%v: %v", w, direct, err)
			}
			got := map[cind.CIND]bool{}
			for _, c := range broad {
				got[c] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("w=%d direct=%v: bitmap sets found %d CINDs, map reference %d",
					w, direct, len(got), len(want))
			}
		}
	}
}
