package capture

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/fcdetect"
	"repro/internal/fixtures"
	"repro/internal/naive"
	"repro/internal/rdf"
)

// expectedClosedGroups computes, from first principles, the capture group of
// every value: the set of captures over the AR-pruned frequent-condition
// universe whose interpretation contains the value.
func expectedClosedGroups(ds *rdf.Dataset, h int, opts naive.Options) map[string]int {
	freq := naive.FrequentConditions(ds, h, opts)
	ars := naive.AssociationRules(ds, h, opts)
	arEmbedded := func(c cind.Condition) bool {
		if !c.IsBinary() {
			return false
		}
		p := c.UnaryParts()
		for _, r := range ars {
			if (r.If == p[0] && r.Then == p[1]) || (r.If == p[1] && r.Then == p[0]) {
				return true
			}
		}
		return false
	}
	groups := make(map[rdf.Value]map[string]struct{})
	for cond := range freq {
		if arEmbedded(cond) {
			continue
		}
		for _, a := range rdf.Attrs {
			if cond.Uses(a) {
				continue
			}
			cap := cind.Capture{Proj: a, Cond: cond}
			for v := range cind.Interpret(ds, cap) {
				g, ok := groups[v]
				if !ok {
					g = make(map[string]struct{})
					groups[v] = g
				}
				g[cap.Format(ds.Dict)] = struct{}{}
			}
		}
	}
	// Serialize each group as a sorted member list; count multiplicities.
	out := make(map[string]int)
	for _, g := range groups {
		members := make([]string, 0, len(g))
		for m := range g {
			members = append(members, m)
		}
		sort.Strings(members)
		out[strings.Join(members, "|")]++
	}
	return out
}

func buildClosedGroups(ds *rdf.Dataset, h, workers int, opts fcdetect.Options) ([][]cind.Capture, *rdf.Dataset) {
	ctx := dataflow.NewContext(workers)
	triples := dataflow.Parallelize(ctx, "input", ds.Triples)
	fc := fcdetect.Detect(triples, h, opts)
	gs := BuildGroups(triples, fc, opts)
	closed, _ := closeAll(gs, dataflow.Collect(gs.Dataset))
	return closed, ds
}

// closeAll closes groups through gs and renders them as captures; members
// counts the raw, unclosed members.
func closeAll(gs *Groups, groups []Group) (closed [][]cind.Capture, members int) {
	var arena []uint32
	for _, g := range groups {
		members += len(g)
		closed = append(closed, render(gs, gs.Close(g, &arena)))
	}
	return closed, members
}

// render translates a group's ids into its captures.
func render(gs *Groups, g Group) []cind.Capture {
	out := make([]cind.Capture, len(g))
	for i, id := range g {
		out[i] = gs.Captures[id]
	}
	return out
}

// tableOf interns captures into a table in capture order, with no groups.
func tableOf(t *testing.T, captures ...cind.Capture) *Groups {
	t.Helper()
	table := slices.SortedFunc(slices.Values(captures), cind.CompareCaptures)
	gs, err := NewGroups(nil, slices.Compact(table))
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

// idsOf returns the group of the given captures, which the table must hold.
func idsOf(t *testing.T, gs *Groups, captures ...cind.Capture) Group {
	t.Helper()
	var g Group
	for _, c := range captures {
		id, ok := slices.BinarySearchFunc(gs.Captures, c, cind.CompareCaptures)
		if !ok {
			t.Fatalf("capture %+v not in the table", c)
		}
		g = append(g, uint32(id))
	}
	slices.Sort(g)
	return slices.Compact(g)
}

// TestGroupsMatchFirstPrinciples compares the closed capture groups with the
// definition-level construction on several datasets, thresholds, and worker
// counts.
func TestGroupsMatchFirstPrinciples(t *testing.T) {
	datasets := map[string]*rdf.Dataset{
		"table1": fixtures.University(),
		"random": randomDataset(400, 5),
	}
	for name, ds := range datasets {
		for _, h := range []int{1, 2, 3} {
			for _, w := range []int{1, 4} {
				closed, _ := buildClosedGroups(ds, h, w, fcdetect.Options{})
				got := make(map[string]int)
				for _, g := range closed {
					members := make([]string, 0, len(g))
					for _, c := range g {
						members = append(members, c.Format(ds.Dict))
					}
					sort.Strings(members)
					got[strings.Join(members, "|")]++
				}
				want := expectedClosedGroups(ds, h, naive.Options{})
				if len(got) != len(want) {
					t.Errorf("%s h=%d w=%d: %d distinct groups, want %d", name, h, w, len(got), len(want))
					continue
				}
				for sig, n := range want {
					if got[sig] != n {
						t.Errorf("%s h=%d w=%d: group {%s} multiplicity %d, want %d", name, h, w, sig, got[sig], n)
					}
				}
			}
		}
	}
}

// TestPaperGroupExample checks §6.1's worked example: with h=3, the value
// patrick spawns the group {(s, p=rdf:type), (s, p=undergradFrom)}.
func TestPaperGroupExample(t *testing.T) {
	ds := fixtures.University()
	closed, _ := buildClosedGroups(ds, 3, 2, fcdetect.Options{})
	id := func(s string) rdf.Value { return fixtures.MustID(ds, s) }
	want := map[cind.Capture]bool{
		cind.NewCapture(rdf.Subject, cind.Unary(rdf.Predicate, id("rdf:type"))):      true,
		cind.NewCapture(rdf.Subject, cind.Unary(rdf.Predicate, id("undergradFrom"))): true,
	}
	found := false
	for _, g := range closed {
		if len(g) != len(want) {
			continue
		}
		all := true
		for _, c := range g {
			if !want[c] {
				all = false
				break
			}
		}
		if all {
			found = true
		}
	}
	if !found {
		t.Errorf("patrick's group {(s, p=rdf:type), (s, p=undergradFrom)} not found among %d groups", len(closed))
		for _, g := range closed {
			var members []string
			for _, c := range g {
				members = append(members, c.Format(ds.Dict))
			}
			t.Logf("  group: %s", strings.Join(members, ", "))
		}
	}
}

// TestBinarySubsumption: with h=1 every binary condition is frequent, so
// groups store binary captures compactly; the raw (unclosed) groups must not
// contain the subsumed unary captures, while the closure must.
func TestBinarySubsumption(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Add("a", "p", "x")
	ds.Add("b", "p", "x") // p=p ∧ o=x is frequent at h=2
	ds.Add("a", "p", "y")
	ds.Add("b", "p", "y")
	ctx := dataflow.NewContext(2)
	triples := dataflow.Parallelize(ctx, "input", ds.Triples)
	fc := fcdetect.Detect(triples, 2, fcdetect.Options{})
	gs := BuildGroups(triples, fc, fcdetect.Options{})
	id := func(s string) rdf.Value { return fixtures.MustID(ds, s) }

	binary := cind.NewCapture(rdf.Subject, cind.Binary(rdf.Predicate, id("p"), rdf.Object, id("x")))
	unary := cind.NewCapture(rdf.Subject, cind.Unary(rdf.Predicate, id("p")))
	var arena []uint32
	for _, raw := range dataflow.Collect(gs.Dataset) {
		g := render(gs, raw)
		hasBinary := false
		for _, c := range g {
			if c == binary {
				hasBinary = true
			}
		}
		if !hasBinary {
			continue
		}
		for _, c := range g {
			if c == unary {
				t.Errorf("raw group contains both the binary capture and its subsumed unary relaxation")
			}
		}
		foundUnary := false
		for _, c := range render(gs, gs.Close(raw, &arena)) {
			if c == unary {
				foundUnary = true
			}
		}
		if !foundUnary {
			t.Errorf("closure does not restore the subsumed unary capture")
		}
	}
}

func TestCloseIsIdempotentAndDuplicateFree(t *testing.T) {
	binary := cind.NewCapture(rdf.Subject, cind.Binary(rdf.Predicate, 1, rdf.Object, 2))
	sp := cind.NewCapture(rdf.Subject, cind.Unary(rdf.Predicate, 1)) // already implied
	so := cind.NewCapture(rdf.Subject, cind.Unary(rdf.Object, 2))
	op := cind.NewCapture(rdf.Object, cind.Unary(rdf.Predicate, 1))
	gs := tableOf(t, binary, sp, so, op)
	var arena []uint32
	once := gs.Close(idsOf(t, gs, binary, sp, op), &arena)
	twice := gs.Close(once, &arena)
	if len(once) != 4 {
		t.Fatalf("closure size = %d, want 4", len(once))
	}
	if !slices.Equal(twice, once) {
		t.Errorf("closure not idempotent: %v -> %v", once, twice)
	}
	for i := 1; i < len(once); i++ {
		if once[i-1] >= once[i] {
			t.Errorf("closure %v not strictly ascending", once)
		}
	}
}

// TestGroupMembershipEqualsSupport: across all closed groups, the membership
// count of a capture equals its support (Lemma 3).
func TestGroupMembershipEqualsSupport(t *testing.T) {
	ds := randomDataset(300, 4)
	h := 2
	closed, _ := buildClosedGroups(ds, h, 3, fcdetect.Options{})
	counts := map[cind.Capture]int{}
	for _, g := range closed {
		for _, c := range g {
			counts[c]++
		}
	}
	for c, n := range counts {
		if want := cind.SupportOf(ds, c); want != n {
			t.Errorf("capture %s: group memberships %d, support %d", c.Format(ds.Dict), n, want)
		}
	}
}

func randomDataset(n, card int) *rdf.Dataset {
	rng := rand.New(rand.NewSource(11))
	ds := rdf.NewDataset()
	seen := map[[3]int]bool{}
	for len(ds.Triples) < n {
		s, p, o := rng.Intn(card*3), rng.Intn(card), rng.Intn(card*2)
		if seen[[3]int{s, p, o}] {
			continue
		}
		seen[[3]int{s, p, o}] = true
		ds.Add(
			"s"+string(rune('a'+s%26))+string(rune('0'+s/26)),
			"p"+string(rune('a'+p)),
			"o"+string(rune('a'+o%26))+string(rune('0'+o/26)),
		)
	}
	return ds
}
