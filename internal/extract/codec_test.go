package extract

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bloom"
	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/dataflow"
)

// Tests for the id candidate sets against a map-backed reference (refSet): a
// set must round-trip through candSetCodec to the ids the reference holds, its
// encoding must be byte-deterministic, mergeCandSets must keep exactly what
// intersecting the references keeps, and extraction on every strategy, worker
// count and a 2-rank cluster must find what intersecting them per dependent
// finds. The two Bitmap test names are those of the representation the id
// lists replaced.

// refSet is the reference representation of an exact candidate set.
type refSet map[uint32]struct{}

func mapSet(live ...uint32) refSet {
	m := refSet{}
	for _, id := range live {
		m[id] = struct{}{}
	}
	return m
}

// intersect is the reference merge: the ids in both sets.
func (a refSet) intersect(b refSet) refSet {
	out := refSet{}
	for id := range a {
		if _, ok := b[id]; ok {
			out[id] = struct{}{}
		}
	}
	return out
}

// exactSet builds an exact candSet of the given ids, put into ascending order.
func exactSet(ids ...uint32) *candSet {
	refs := append([]uint32{}, ids...) // non-nil even when empty: an exact set
	slices.Sort(refs)
	return &candSet{refs: slices.Compact(refs), count: 1}
}

// TestCandSetCodecBitmapMapParity: an exact set decodes through the
// spill/wire codec to the ids the map reference holds, its encoding is
// deterministic — two encodings of equal sets are byte-identical — and a Bloom
// set keeps its filter, count and lineage.
func TestCandSetCodecBitmapMapParity(t *testing.T) {
	live := []uint32{0, 3, 4, 8, 1 << 20, math.MaxUint32}
	codec := candSetCodec{}
	enc := codec.AppendValue(nil, exactSet(live...))
	dec := codec.DecodeValue(enc)
	if dec == nil || !reflect.DeepEqual(mapSet(dec.refs...), mapSet(live...)) || !slices.Equal(dec.refs, live) {
		t.Fatalf("round-trip kept %+v, want %v", dec, live)
	}
	if dec.count != 1 || dec.lineage || dec.approx != nil {
		t.Errorf("round-trip bookkeeping: %+v", dec)
	}
	if other := codec.AppendValue(nil, exactSet(live[3], live[5], live[0], live[1], live[4], live[2])); !bytes.Equal(enc, other) {
		t.Error("equal exact sets encoded to different bytes")
	}

	// Every candidate refuted: an empty exact set, still told apart from a
	// pure-Bloom set.
	if empty := codec.DecodeValue(codec.AppendValue(nil, exactSet())); empty == nil || empty.refs == nil || len(empty.refs) != 0 {
		t.Errorf("empty exact set decoded to %+v", empty)
	}

	f := bloom.NewBytes(64, bloomHashes)
	f.Add(7)
	b := codec.DecodeValue(codec.AppendValue(nil, &candSet{approx: f, count: 3, lineage: true}))
	if b == nil || b.refs != nil || !b.approx.Test(7) || b.count != 3 || !b.lineage {
		t.Errorf("Bloom set decoded to %+v", b)
	}
}

// TestMergeCandSetsBitmap covers the exact arms of Algorithm 3's merge against
// the map reference: exact x exact, a decoded set on either side, exact x
// Bloom, with count/lineage bookkeeping and no write to the right operand.
func TestMergeCandSetsBitmap(t *testing.T) {
	want := func(t *testing.T, m *candSet, count int, lineage bool, ids ...uint32) {
		t.Helper()
		if m.count != count || m.lineage != lineage {
			t.Errorf("merge bookkeeping: count=%d lineage=%v, want %d/%v", m.count, m.lineage, count, lineage)
		}
		if got, exp := mapSet(m.refs...), mapSet(ids...); !reflect.DeepEqual(got, exp) {
			t.Errorf("merge kept %v, want %v", got, exp)
		}
	}
	want(t, mergeCandSets(exactSet(1, 2, 3), exactSet(2, 3, 4)), 2, false, 2, 3)
	want(t, mergeCandSets(exactSet(1, 2), exactSet(2, 3)), 2, false, 2)

	// exact ∩ a set that crossed the spill/wire codec, both orders.
	decoded := func() *candSet {
		return candSetCodec{}.DecodeValue(candSetCodec{}.AppendValue(nil, exactSet(2, 3, 4)))
	}
	want(t, mergeCandSets(exactSet(1, 2, 4), decoded()), 2, false, 2, 4)
	want(t, mergeCandSets(decoded(), exactSet(1, 2, 4)), 2, false, 2, 4)

	// exact ∩ Bloom: true members survive the probe, lineage is inherited.
	f := bloom.NewBytes(64, bloomHashes)
	f.Add(2)
	m := mergeCandSets(exactSet(1, 2), &candSet{approx: f, count: 1, lineage: true})
	if !m.lineage || m.count != 2 || !slices.Contains(m.refs, 2) {
		t.Errorf("exact/Bloom merge: %+v", m)
	}

	// exact ∩ exact on seeded random pairs of every relative shape: the
	// galloping intersection keeps what intersecting the map references keeps,
	// in ascending order, and leaves the right operand as it was.
	rng := rand.New(rand.NewSource(3))
	pool := idPool(6000)
	pick := func(from []uint32, n int) []uint32 {
		out := make([]uint32, 0, n)
		for _, i := range rng.Perm(len(from))[:n] {
			out = append(out, from[i])
		}
		return out
	}
	nested := pick(pool, 900)
	for _, shape := range []struct {
		name string
		a, b []uint32
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
				some := func(u []uint32, share float64) []uint32 {
					var out []uint32
					for _, id := range u {
						if rng.Float64() < share {
							out = append(out, id)
						}
					}
					return out
				}
				liveA, liveB := some(shape.a, live[0]), some(shape.b, live[1])
				a, b := exactSet(liveA...), exactSet(liveB...)
				before := slices.Clone(b.refs)
				exp := mapSet(liveA...).intersect(mapSet(liveB...))
				got := mergeCandSets(a, b)
				if !reflect.DeepEqual(mapSet(got.refs...), exp) || !slices.IsSorted(got.refs) {
					t.Errorf("merge kept %d ids, map merge %d", len(got.refs), len(exp))
				}
				if got.count != 2 || got.lineage {
					t.Errorf("merge bookkeeping: count=%d lineage=%v", got.count, got.lineage)
				}
				if !slices.Equal(b.refs, before) {
					t.Error("merge wrote to its right operand")
				}
			})
		}
	}
}

// idPool returns n distinct ids in a seeded random order, spread over the
// whole id space so that galloping takes steps of every size.
func idPool(n int) []uint32 {
	rng := rand.New(rand.NewSource(29))
	seen := map[uint32]bool{}
	var pool []uint32
	for len(pool) < n {
		id := uint32(rng.Intn(4 * n))
		if rng.Intn(8) == 0 {
			id = rng.Uint32()
		}
		if !seen[id] {
			seen[id] = true
			pool = append(pool, id)
		}
	}
	return pool
}

// BenchmarkFoldExact times ext/candidates-exact's fold on the Freebase-like
// shape of scan_heavy — many small groups over a table of 160 captures, every
// dependent's set shrinking as its groups come in — and the galloping
// intersection of a sparse (16) and a dense (2 048) set with 4 096 ids.
func BenchmarkFoldExact(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	groups := make([]capture.Group, 20000)
	for i := range groups {
		g := make(capture.Group, 2+rng.Intn(8))
		for j := range g {
			g[j] = uint32(rng.Intn(160))
		}
		slices.Sort(g)
		groups[i] = slices.Compact(g)
	}
	admit := slices.Repeat([]bool{true}, 160)
	normal := func(int64) bool { return false }
	b.Run("fold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			foldExact(groups, normal, admit, admit, func(candidate) {})
		}
	})
	pool := idPool(6000)
	other := slices.Sorted(slices.Values(pool[1904:]))
	for _, live := range []int{16, 2048} {
		b.Run(fmt.Sprintf("intersect-%dx4096", live), func(b *testing.B) {
			proto := slices.Sorted(slices.Values(pool[:live]))
			a := make([]uint32, len(proto))
			b.ReportAllocs()
			for b.Loop() {
				copy(a, proto)
				intersect(a, other)
			}
		})
	}
}

// referenceCINDs intersects, per dependent, the groups it occurs in, as maps:
// the broad CINDs with support ≥ h of the groups over tab.
func referenceCINDs(tab []cind.Capture, groups []capture.Group, h int) map[cind.CIND]bool {
	cands, count := map[uint32]refSet{}, map[uint32]int{}
	for _, g := range groups {
		members := mapSet(g...)
		for _, dep := range g {
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
				want[cind.CIND{Inclusion: cind.Inclusion{Dep: tab[dep], Ref: tab[r]}, Support: count[dep]}] = true
			}
		}
	}
	return want
}

func asSet(cs []cind.CIND) map[cind.CIND]bool {
	set := make(map[cind.CIND]bool, len(cs))
	for _, c := range cs {
		set[c] = true
	}
	return set
}

// TestBroadCINDsMatchMapReference: extraction produces exactly the CINDs (and
// supports) of the map-backed reference — across worker counts and both
// extraction strategies.
func TestBroadCINDsMatchMapReference(t *testing.T) {
	ds := randomDataset(300, 4)
	const h = 2
	tab, groups := datasetGroups(ds)
	want := referenceCINDs(tab, groups, h)
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
			if got := asSet(broad); !reflect.DeepEqual(got, want) {
				t.Errorf("w=%d direct=%v: found %d CINDs, map reference %d", w, direct, len(got), len(want))
			}
		}
	}
}

// TestBloomUnitsMatchMapReference drives the arm no benchmark workload
// reaches: dominant groups (one group holding every capture dwarfs the rest)
// and ForceBloomUnits, so that Bloom work units, validation and their codecs
// run, at 1–4 workers and on a 2-rank cluster, where support columns,
// candidate and validation sets and work units cross the wire. Each run must
// find exactly the map reference's CINDs.
func TestBloomUnitsMatchMapReference(t *testing.T) {
	tab, groups := datasetGroups(randomDataset(300, 10))
	all := make(capture.Group, len(tab))
	for i := range all {
		all[i] = uint32(i)
	}
	groups = append(groups, all)
	const h = 2
	want := referenceCINDs(tab, groups, h)
	if len(want) == 0 {
		t.Fatal("reference extraction found nothing (vacuous comparison)")
	}
	run := func(c *dataflow.Context, force, local bool) (map[cind.CIND]bool, error) {
		res, err := BroadCINDs(newGroups(c, tab, groups...), Config{Support: h, ForceBloomUnits: force})
		if local && c.Workers() > 1 {
			units := int64(0)
			for _, sp := range c.Stats().Spans() {
				if sp.Name == "ext/place-units" {
					units += sp.RecordsIn
				}
			}
			if err == nil && units == 0 {
				err = errors.New("no group was split into work units")
			}
		}
		return asSet(res), err
	}
	for w := 1; w <= 4; w++ {
		for _, force := range []bool{false, true} {
			if w == 1 && !force {
				continue // one worker's average load is the total: nothing dominates
			}
			got, err := run(dataflow.NewContext(w), force, true)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("w=%d force=%v: %d CINDs, %v; map reference %d", w, force, len(got), err, len(want))
			}
		}
	}
	for _, force := range []bool{false, true} {
		var mu sync.Mutex
		onCluster(t, 2, func(c *dataflow.Context) {
			got, err := run(c, force, false)
			mu.Lock()
			defer mu.Unlock()
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("cluster rank %d force=%v: %d CINDs, %v; map reference %d", c.Rank(), force, len(got), err, len(want))
			}
		})
	}
}

// FuzzDecodeRecords: whatever the bytes, no decoder of the extractor's
// records panics, and what each decodes — src as every record's value, key as
// a candidate set's key — is either rejected by the check its consumer runs,
// with ErrCorruptRecord, or a record that round-trips, whose ids lie in the
// table.
func FuzzDecodeRecords(f *testing.F) {
	key := idKey{}.AppendKey(nil, 5)
	f.Add(key, supportCodec{}.AppendValue(nil, supportColumn{3, 0, 1 << 31}))
	f.Add(key, candSetCodec{}.AppendValue(nil, exactSet(0, 6, 63)))
	bf := bloom.NewBytes(64, bloomHashes)
	bf.Add(9)
	f.Add(key, candSetCodec{}.AppendValue(nil, &candSet{approx: bf, count: 2, lineage: true}))
	f.Add(key, workUnitCodec{}.AppendValue(nil, workUnit{Deps: []uint32{2, 3}, All: []uint32{1, 2, 3, 40}}))
	f.Add([]byte{0, 0, 1}, idSetCodec{}.AppendValue(nil, []uint32{}))
	f.Fuzz(func(t *testing.T, key, src []byte) {
		const n = 64 // the table size the consumers check ids against
		typed := func(what string, err error) bool {
			if err != nil && !errors.Is(err, dataflow.ErrCorruptRecord) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
			return err == nil
		}
		if col := (supportCodec{}).DecodeValue(src); col != nil {
			if len(col) > len(src) {
				t.Fatalf("%d counters from %d bytes", len(col), len(src))
			}
			if again := (supportCodec{}).DecodeValue(supportCodec{}.AppendValue(nil, col)); !slices.Equal(again, col) {
				t.Fatalf("support column does not round-trip")
			}
		}
		dep := candSetCodec{}.DecodeKey(key)
		if cs := (candSetCodec{}).DecodeValue(src); typed("candidate set", checkSet(dep, cs, n)) {
			again := candSetCodec{}.DecodeValue(candSetCodec{}.AppendValue(nil, cs))
			if again == nil || !slices.Equal(again.refs, cs.refs) || again.count != cs.count || again.lineage != cs.lineage ||
				(cs.approx != nil) != (again.approx != nil) || cs.approx != nil && !bytes.Equal(cs.approx.AppendBinary(nil), again.approx.AppendBinary(nil)) {
				t.Fatalf("candidate set %+v does not round-trip", cs)
			}
		}
		if ids := (idSetCodec{}).DecodeValue(src); typed("validation set", checkIDs(n, ids)) {
			if !slices.Equal(idSetCodec{}.DecodeValue(idSetCodec{}.AppendValue(nil, ids)), ids) || !slices.IsSorted(ids) {
				t.Fatalf("validation set %v does not round-trip", ids)
			}
		}
		if u := (workUnitCodec{}).DecodeValue(src); typed("work unit", checkIDs(n, u.Deps, u.All)) {
			if !reflect.DeepEqual(workUnitCodec{}.DecodeValue(workUnitCodec{}.AppendValue(nil, u)), u) {
				t.Fatalf("work unit %+v does not round-trip", u)
			}
		}
	})
}
