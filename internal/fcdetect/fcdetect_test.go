package fcdetect

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/fixtures"
	"repro/internal/naive"
	"repro/internal/rdf"
)

func detect(t *testing.T, ds *rdf.Dataset, h, workers int, opts Options) *Output {
	t.Helper()
	ctx := dataflow.NewContext(workers)
	triples := dataflow.Parallelize(ctx, "input", ds.Triples)
	return Detect(triples, h, opts)
}

func counterMap(f Frequent) map[cind.Condition]int {
	out := make(map[cind.Condition]int)
	for _, p := range f {
		out[p.Key] = p.Val
	}
	return out
}

// TestDetectMatchesOracle compares frequent conditions and ARs against the
// exhaustive reference, across worker counts and thresholds.
func TestDetectMatchesOracle(t *testing.T) {
	datasets := map[string]*rdf.Dataset{
		"table1": fixtures.University(),
		"random": randomDataset(500, 6),
	}
	for name, ds := range datasets {
		for _, h := range []int{1, 2, 3, 10} {
			for _, w := range []int{1, 3} {
				out := detect(t, ds, h, w, Options{})
				want := naive.FrequentConditions(ds, h, naive.Options{})
				got := counterMap(out.Unary)
				for k, v := range counterMap(out.Binary) {
					got[k] = v
				}
				if len(got) != len(want) {
					t.Errorf("%s h=%d w=%d: %d frequent conditions, oracle has %d", name, h, w, len(got), len(want))
				}
				for c, n := range want {
					if got[c] != n {
						t.Errorf("%s h=%d w=%d: freq(%s) = %d, oracle %d", name, h, w, c.Format(ds.Dict), got[c], n)
					}
				}
				// The unary index must know exactly the frequent conditions,
				// each at its position among those on its attribute.
				seen := map[rdf.Attr]int{}
				for _, p := range out.Unary {
					if r, ok := out.UnaryRank(p.Key.A1, p.Key.V1); !ok || r != seen[p.Key.A1] {
						t.Errorf("%s h=%d w=%d: rank(%s) = %d, %v; want %d", name, h, w, p.Key.Format(ds.Dict), r, ok, seen[p.Key.A1])
					}
					seen[p.Key.A1]++
				}
				for v := 0; v <= ds.Dict.Len(); v++ {
					for _, a := range rdf.Attrs {
						if _, ok := out.UnaryRank(a, rdf.Value(v)); ok != (want[cind.Unary(a, rdf.Value(v))] > 0) {
							t.Errorf("%s h=%d w=%d: index says %v for %s=%d", name, h, w, ok, a, v)
						}
					}
				}
				// Association rules must match the oracle exactly.
				wantARs := map[cind.AR]bool{}
				for _, r := range naive.AssociationRules(ds, h, naive.Options{}) {
					wantARs[r] = true
				}
				for _, r := range out.ARs {
					if !wantARs[r] {
						t.Errorf("%s h=%d w=%d: spurious AR %s", name, h, w, r.Format(ds.Dict))
					}
					delete(wantARs, r)
				}
				for r := range wantARs {
					t.Errorf("%s h=%d w=%d: missing AR %s", name, h, w, r.Format(ds.Dict))
				}
			}
		}
	}
}

func TestDetectTable1Example(t *testing.T) {
	ds := fixtures.University()
	id := func(s string) rdf.Value { return fixtures.MustID(ds, s) }
	out := detect(t, ds, 2, 2, Options{})
	// The paper's running example: o=gradStudent → p=rdf:type with support 2.
	found := false
	for _, r := range out.ARs {
		if r.If == cind.Unary(rdf.Object, id("gradStudent")) &&
			r.Then == cind.Unary(rdf.Predicate, id("rdf:type")) {
			found = true
			if r.Support != 2 {
				t.Errorf("AR support = %d, want 2", r.Support)
			}
		}
	}
	if !found {
		t.Errorf("missing the paper's example AR")
	}
}

// TestPredicatesOnlyInConditionsOptionIsDetectorNeutral: the §8.3 option
// restricts projections, not conditions, so the detector output is
// unaffected by it.
func TestPredicatesOnlyInConditionsOptionIsDetectorNeutral(t *testing.T) {
	ds := fixtures.University()
	plain := detect(t, ds, 2, 2, Options{})
	restricted := detect(t, ds, 2, 2, Options{PredicatesOnlyInConditions: true})
	if plain.Unary.Len() != restricted.Unary.Len() ||
		plain.Binary.Len() != restricted.Binary.Len() ||
		len(plain.ARs) != len(restricted.ARs) {
		t.Errorf("detector output changed under the projection-only option: %d/%d/%d vs %d/%d/%d",
			plain.Unary.Len(), plain.Binary.Len(), len(plain.ARs),
			restricted.Unary.Len(), restricted.Binary.Len(), len(restricted.ARs))
	}
}

// TestDetectMatchesReference is the differential test of the dense-id
// detector against the struct-keyed, Bloom-probed one it replaced
// (reference_test.go): equal frequent conditions with equal counts and equal
// association rules, on seeded random datasets across thresholds and workers.
func TestDetectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		ds := datagen.Random(seed)
		for _, h := range []int{1, 2, 3, 5} {
			for _, w := range []int{1, 2, 4} {
				label := fmt.Sprintf("seed=%d h=%d w=%d", seed, h, w)
				got := detect(t, ds, h, w, Options{})
				want := referenceDetect(dataflow.Parallelize(dataflow.NewContext(w), "input", ds.Triples), h)
				for what, pair := range map[string][2]map[cind.Condition]int{
					"unary":  {counterMap(got.Unary), want.Unary},
					"binary": {counterMap(got.Binary), want.Binary},
				} {
					if len(pair[0]) != len(pair[1]) {
						t.Errorf("%s: %d frequent %s conditions, reference has %d", label, len(pair[0]), what, len(pair[1]))
					}
					for c, n := range pair[1] {
						if pair[0][c] != n {
							t.Errorf("%s: freq(%s) = %d, reference %d", label, c.Format(ds.Dict), pair[0][c], n)
						}
					}
				}
				rules := map[cind.AR]bool{}
				for _, r := range got.ARs {
					rules[r] = true
				}
				if len(rules) != len(got.ARs) || len(rules) != len(want.ARs) {
					t.Errorf("%s: %d rules (%d distinct), reference has %d", label, len(got.ARs), len(rules), len(want.ARs))
				}
				for _, r := range want.ARs {
					if !rules[r] {
						t.Errorf("%s: missing AR %s", label, r.Format(ds.Dict))
					}
				}
			}
		}
	}
}

// TestFrequentListsAreInConditionOrder: downstream code relies on the order.
func TestFrequentListsAreInConditionOrder(t *testing.T) {
	out := detect(t, randomDataset(500, 6), 2, 3, Options{})
	for _, f := range []Frequent{out.Unary, out.Binary} {
		for i := 1; i < len(f); i++ {
			if a, b := f[i-1].Key, f[i].Key; !lessCondition(a, b) {
				t.Fatalf("conditions %d and %d out of order: %+v, %+v", i-1, i, a, b)
			}
		}
	}
}

func lessCondition(a, b cind.Condition) bool {
	if a.A1 != b.A1 {
		return a.A1 < b.A1
	}
	if a.A2 != b.A2 {
		return a.A2 < b.A2
	}
	if a.V1 != b.V1 {
		return a.V1 < b.V1
	}
	return a.V2 < b.V2
}

// TestBinaryKeyRoundTrip packs and unpacks every attribute pair at the id
// extremes and checks that key order is condition order.
func TestBinaryKeyRoundTrip(t *testing.T) {
	ids := []rdf.Value{0, 1, rdf.MaxValue - 1, rdf.MaxValue}
	var conds []cind.Condition
	for _, pair := range [][2]rdf.Attr{{rdf.Subject, rdf.Predicate}, {rdf.Subject, rdf.Object}, {rdf.Predicate, rdf.Object}} {
		for _, v1 := range ids {
			for _, v2 := range ids {
				conds = append(conds, cind.Binary(pair[0], v1, pair[1], v2))
			}
		}
	}
	for i, c := range conds {
		k := PackBinary(c)
		if got := k.Condition(); got != c {
			t.Errorf("round trip of %+v gives %+v", c, got)
		}
		if i > 0 {
			prev := conds[i-1]
			if pk := PackBinary(prev); !(pk < k) || !lessCondition(prev, c) {
				t.Errorf("keys of %+v and %+v not in condition order", prev, c)
			}
		}
	}
}

// TestIDSpaceGuard: a term id beyond rdf.MaxValue would collide with another
// key once packed, so the detector must refuse the input — as a typed error
// on the Context, without sizing a column by that id, and without a panic.
func TestIDSpaceGuard(t *testing.T) {
	for _, w := range []int{1, 3} {
		ctx := dataflow.NewContext(w)
		triples := dataflow.Parallelize(ctx, "input", []rdf.Triple{
			{S: 1, P: 2, O: 3}, {S: 1, P: 2, O: rdf.MaxValue + 1}, {S: 4, P: 2, O: 3},
		})
		out := Detect(triples, 1, Options{})
		var ide *rdf.IDSpaceError
		if err := ctx.Err(); !errors.As(err, &ide) || ide.ID != rdf.MaxValue+1 {
			t.Fatalf("w=%d: Context.Err() = %v, want an *rdf.IDSpaceError for id %d", w, err, rdf.MaxValue+1)
		}
		if out.Unary.Len() != 0 || out.Binary.Len() != 0 || len(out.ARs) != 0 {
			t.Errorf("w=%d: failed run returned conditions", w)
		}
	}
	// The largest admissible id passes.
	ctx := dataflow.NewContext(1)
	out := Detect(dataflow.Parallelize(ctx, "input", []rdf.Triple{{S: 0, P: 0, O: 5}, {S: 0, P: 0, O: 6}}), 2, Options{})
	if ctx.Err() != nil || out.Binary.Len() != 1 {
		t.Errorf("small ids: err %v, %d binary conditions", ctx.Err(), out.Binary.Len())
	}
}

func TestHistogramTotalsAndShape(t *testing.T) {
	ds := fixtures.University()
	ctx := dataflow.NewContext(3)
	triples := dataflow.Parallelize(ctx, "input", ds.Triples)
	hist := ConditionFrequencyHistogram(triples)

	// The histogram must account for every distinct condition exactly once.
	wantDistinct := len(naive.FrequentConditions(ds, 1, naive.Options{}))
	total := 0
	weighted := 0
	for _, b := range hist {
		total += b.Count
		weighted += b.Count * b.Frequency
	}
	if total != wantDistinct {
		t.Errorf("histogram covers %d conditions, want %d", total, wantDistinct)
	}
	// Each triple contributes 3 unary + 3 binary condition instances.
	if weighted != 6*ds.Size() {
		t.Errorf("weighted total = %d, want %d", weighted, 6*ds.Size())
	}
	// Buckets are sorted by frequency.
	for i := 1; i < len(hist); i++ {
		if hist[i].Frequency <= hist[i-1].Frequency {
			t.Errorf("histogram not sorted at %d", i)
		}
	}
}

// TestDetectEmptyInput ensures the detector tolerates empty datasets.
func TestDetectEmptyInput(t *testing.T) {
	ds := rdf.NewDataset()
	out := detect(t, ds, 5, 2, Options{})
	if out.Unary.Len() != 0 || out.Binary.Len() != 0 || len(out.ARs) != 0 {
		t.Errorf("non-empty output for empty input")
	}
	if _, ok := out.UnaryRank(rdf.Subject, 0); ok {
		t.Errorf("unary index not empty for empty input")
	}
}

func randomDataset(n, card int) *rdf.Dataset {
	rng := rand.New(rand.NewSource(7))
	ds := rdf.NewDataset()
	for i := 0; i < n; i++ {
		s := rng.Intn(card * 3)
		p := rng.Intn(card)
		o := rng.Intn(card * 2)
		ds.Add(
			"s"+string(rune('a'+s%26))+string(rune('0'+s/26)),
			"p"+string(rune('a'+p)),
			"o"+string(rune('a'+o%26))+string(rune('0'+o/26)),
		)
	}
	return ds
}

// BenchmarkDetect runs the detector over the Freebase analogue at six times
// the size of the benchmark's scan_heavy workload (4.8 M triples, the threshold
// scaled alike), where one pass takes about 100 ms.
func BenchmarkDetect(b *testing.B) {
	ds := datagen.Freebase(12)
	ctx := dataflow.NewContext(2)
	triples := dataflow.Parallelize(ctx, "input", ds.Triples)
	b.ReportAllocs()
	for b.Loop() {
		if out := Detect(triples, 12000, Options{}); out.Unary.Len() == 0 {
			b.Fatal("no frequent conditions")
		}
	}
}
