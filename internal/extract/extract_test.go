package extract

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bloom"
	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/fcdetect"
	"repro/internal/naive"
	"repro/internal/rdf"
)

func cap(proj rdf.Attr, cond cind.Condition) cind.Capture {
	return cind.Capture{Proj: proj, Cond: cond}
}

// table interns the captures of groups, and the unary relaxations of their
// binary members, into a capture table in capture order.
func table(groups ...[]cind.Capture) []cind.Capture {
	var all []cind.Capture
	for _, g := range groups {
		for _, c := range g {
			all = append(all, c)
			for _, u := range c.Cond.UnaryParts() {
				all = append(all, cind.Capture{Proj: c.Proj, Cond: u})
			}
		}
	}
	slices.SortFunc(all, cind.CompareCaptures)
	return slices.Compact(all)
}

// ids translates captures into their ids in tab, in the order given.
func ids(tab []cind.Capture, captures ...cind.Capture) capture.Group {
	g := make(capture.Group, len(captures))
	for i, c := range captures {
		id, ok := slices.BinarySearchFunc(tab, c, cind.CompareCaptures)
		if !ok {
			panic(fmt.Sprintf("capture %+v not in the table", c))
		}
		g[i] = uint32(id)
	}
	return g
}

// newGroups hands id groups over tab to the extractor on ctx.
func newGroups(ctx *dataflow.Context, tab []cind.Capture, groups ...capture.Group) *capture.Groups {
	gs, err := capture.NewGroups(dataflow.Parallelize(ctx, "groups", groups), tab)
	if err != nil {
		panic(err)
	}
	return gs
}

// mkGroups interns capture slices into a table and hands them over as
// groups, each put into the id order a capture.Group is defined to have.
func mkGroups(w int, groups ...[]cind.Capture) *capture.Groups {
	tab := table(groups...)
	gs := make([]capture.Group, len(groups))
	for i, g := range groups {
		gs[i] = ids(tab, g...)
		slices.Sort(gs[i])
	}
	return newGroups(dataflow.NewContext(w), tab, gs...)
}

// TestExample6Extraction reproduces §7.1's running example: three capture
// groups G1 = {ca..ce}, G2 = {ca, cb}, G3 = {cc, cd}. With h=2, ce is pruned
// (support 1); ca and cb co-occur in G1 and G2, cc and cd in G1 and G3.
func TestExample6Extraction(t *testing.T) {
	ca := cap(rdf.Subject, cind.Unary(rdf.Predicate, 1))
	cb := cap(rdf.Subject, cind.Unary(rdf.Predicate, 2))
	cc := cap(rdf.Subject, cind.Unary(rdf.Predicate, 3))
	cd := cap(rdf.Subject, cind.Unary(rdf.Predicate, 4))
	ce := cap(rdf.Subject, cind.Unary(rdf.Predicate, 5))
	for _, direct := range []bool{false, true} {
		groups := mkGroups(2, []cind.Capture{ca, cb, cc, cd, ce}, []cind.Capture{ca, cb}, []cind.Capture{cc, cd})
		got, err := BroadCINDs(groups, Config{Support: 2, DirectExtraction: direct})
		if err != nil {
			t.Fatal(err)
		}
		want := map[cind.Inclusion]int{
			{Dep: ca, Ref: cb}: 2,
			{Dep: cb, Ref: ca}: 2,
			{Dep: cc, Ref: cd}: 2,
			{Dep: cd, Ref: cc}: 2,
		}
		if len(got) != len(want) {
			t.Errorf("direct=%v: got %d CINDs, want %d: %+v", direct, len(got), len(want), got)
		}
		for _, c := range got {
			if supp, ok := want[c.Inclusion]; !ok || supp != c.Support {
				t.Errorf("direct=%v: unexpected %+v", direct, c)
			}
		}
	}
}

// TestDominantGroupSplitting drives a dataset with one huge group through
// both the balanced and the direct path; results must agree.
func TestDominantGroupSplitting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var big []cind.Capture
	for i := 0; i < 200; i++ {
		big = append(big, cap(rdf.Predicate, cind.Unary(rdf.Subject, rdf.Value(i))))
	}
	// A few small groups that overlap with the big one.
	var smalls [][]cind.Capture
	for i := 0; i < 30; i++ {
		var g []cind.Capture
		for j := 0; j < 5; j++ {
			g = append(g, big[rng.Intn(len(big))])
		}
		g = dedup(g)
		smalls = append(smalls, g)
	}
	build := func() *capture.Groups {
		all := append([][]cind.Capture{big}, smalls...)
		return mkGroups(4, all...)
	}
	balanced, err := BroadCINDs(build(), Config{Support: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := BroadCINDs(build(), Config{Support: 2, DirectExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(balanced) != len(direct) {
		t.Fatalf("balanced found %d CINDs, direct %d", len(balanced), len(direct))
	}
	set := map[cind.CIND]bool{}
	for _, c := range direct {
		set[c] = true
	}
	for _, c := range balanced {
		if !set[c] {
			t.Errorf("balanced-only CIND %+v", c)
		}
	}
}

// TestMinimizeAgreesWithOracle: the consolidation must agree with the
// specification-level Minimize on discovered broad sets.
func TestMinimizeAgreesWithOracle(t *testing.T) {
	ds := randomDataset(160, 4)
	for _, h := range []int{1, 2, 3} {
		// Build broad CINDs through the real pipeline components would need
		// fcdetect; instead enumerate the oracle's broad set directly.
		broad := oracleBroad(ds, h)
		a := Minimize(broad)
		b := naive.Minimize(broad)
		if len(a) != len(b) {
			t.Errorf("h=%d: extract.Minimize kept %d, naive kept %d", h, len(a), len(b))
		}
		bset := map[cind.Inclusion]bool{}
		for _, c := range b {
			bset[c.Inclusion] = true
		}
		for _, c := range a {
			if c.Trivial() {
				t.Errorf("h=%d: trivial CIND survived Minimize: %s", h, c.Inclusion.Format(ds.Dict))
			}
			if !bset[c.Inclusion] {
				t.Errorf("h=%d: disagreement on %s", h, c.Inclusion.Format(ds.Dict))
			}
		}
	}
}

// oracleBroad enumerates all valid broad CINDs (including trivial ones) over
// the AR-pruned frequent universe, mirroring what BroadCINDs returns.
func oracleBroad(ds *rdf.Dataset, h int) []cind.CIND {
	freq := naive.FrequentConditions(ds, h, naive.Options{})
	ars := naive.AssociationRules(ds, h, naive.Options{})
	arSet := map[[2]cind.Condition]bool{}
	for _, r := range ars {
		arSet[[2]cind.Condition{r.If, r.Then}] = true
	}
	var caps []cind.Capture
	for c := range freq {
		if c.IsBinary() {
			p := c.UnaryParts()
			if arSet[[2]cind.Condition{p[0], p[1]}] || arSet[[2]cind.Condition{p[1], p[0]}] {
				continue
			}
		}
		for _, a := range rdf.Attrs {
			if !c.Uses(a) {
				caps = append(caps, cind.Capture{Proj: a, Cond: c})
			}
		}
	}
	interp := make([]map[rdf.Value]struct{}, len(caps))
	for i, c := range caps {
		interp[i] = cind.Interpret(ds, c)
	}
	subset := func(a, b map[rdf.Value]struct{}) bool {
		if len(a) > len(b) {
			return false
		}
		for v := range a {
			if _, ok := b[v]; !ok {
				return false
			}
		}
		return true
	}
	var out []cind.CIND
	for i, dep := range caps {
		if len(interp[i]) < h {
			continue
		}
		for j, ref := range caps {
			if i == j {
				continue
			}
			if subset(interp[i], interp[j]) {
				out = append(out, cind.CIND{Inclusion: cind.Inclusion{Dep: dep, Ref: ref}, Support: len(interp[i])})
			}
		}
	}
	return out
}

// TestMergeCandSets covers Algorithm 3's three cases plus count/lineage
// bookkeeping.
func TestMergeCandSets(t *testing.T) {
	blm := func(ids ...uint32) *candSet {
		f := bloom.NewBytes(64, bloomHashes)
		for _, id := range ids {
			f.Add(uint64(id))
		}
		return &candSet{approx: f, count: 1, lineage: true}
	}

	// exact ∩ exact
	m := mergeCandSets(exactSet(1, 2, 3), exactSet(2, 3))
	if len(m.refs) != 2 || m.count != 2 || m.lineage {
		t.Errorf("exact/exact merge wrong: %+v", m)
	}

	// exact ∩ bloom: probing keeps members present in the filter
	m = mergeCandSets(exactSet(1, 2), blm(2))
	if m.refs == nil || m.count != 2 || !m.lineage {
		t.Errorf("mixed merge wrong: %+v", m)
	}
	if !slices.Contains(m.refs, 2) {
		t.Errorf("mixed merge dropped true member")
	}

	// bloom ∩ bloom: common members must survive the AND
	m = mergeCandSets(blm(1, 2), blm(2, 3))
	if m.approx == nil || !m.approx.Test(2) || m.count != 2 || !m.lineage {
		t.Errorf("bloom/bloom merge wrong: %+v", m)
	}

	// order invariance of the mixed case
	m2 := mergeCandSets(blm(2), exactSet(1, 2))
	if m2.refs == nil || m2.count != 2 || !m2.lineage {
		t.Errorf("mixed merge (swapped) wrong: %+v", m2)
	}

	// a set that decoded to none, or filters of two geometries, poison the merge
	wide := &candSet{approx: bloom.NewBytes(128, bloomHashes), count: 1, lineage: true}
	for name, pair := range map[string][2]*candSet{
		"nil left": {nil, exactSet(1)}, "nil right": {blm(1), nil}, "geometry": {blm(1), wide},
	} {
		if got := mergeCandSets(pair[0], pair[1]); got != nil {
			t.Errorf("%s: merge = %+v, want nil", name, got)
		}
	}
}

// TestArityFilters: per-class extraction must partition the unfiltered
// result exactly.
func TestArityFilters(t *testing.T) {
	ds := randomDataset(250, 4)
	groups := func() *capture.Groups {
		ctx := dataflow.NewContext(3)
		gs := groupsFromDataset(ctx, ds)
		return gs
	}
	h := 2
	all, err := BroadCINDs(groups(), Config{Support: h})
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string][]cind.CIND{}
	for _, pair := range []struct {
		name     string
		dep, ref Arity
	}{
		{"11", UnaryOnly, UnaryOnly}, {"12", UnaryOnly, BinaryOnly},
		{"21", BinaryOnly, UnaryOnly}, {"22", BinaryOnly, BinaryOnly},
	} {
		cfg := Config{Support: h, DepArity: pair.dep, RefArity: pair.ref}
		cs, err := BroadCINDs(groups(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		classes[pair.name] = cs
	}
	total := 0
	set := map[cind.CIND]bool{}
	for name, cs := range classes {
		total += len(cs)
		for _, c := range cs {
			if set[c] {
				t.Errorf("CIND in two classes: %s", c.Inclusion.Format(ds.Dict))
			}
			set[c] = true
			wantDepBin := name[0] == '2'
			wantRefBin := name[1] == '2'
			if c.Dep.Cond.IsBinary() != wantDepBin || c.Ref.Cond.IsBinary() != wantRefBin {
				t.Errorf("class %s contains %s", name, c.Inclusion.Format(ds.Dict))
			}
		}
	}
	if total != len(all) {
		t.Errorf("classes sum to %d CINDs, unfiltered extraction finds %d", total, len(all))
	}
	for _, c := range all {
		if !set[c] {
			t.Errorf("unfiltered CIND missing from class partition: %s", c.Inclusion.Format(ds.Dict))
		}
	}
}

// groupsFromDataset builds closed-form ground-truth groups (h=1 universe
// pruned by nothing) for extraction tests that do not involve fcdetect.
func groupsFromDataset(ctx *dataflow.Context, ds *rdf.Dataset) *capture.Groups {
	tab, gs := datasetGroups(ds)
	return newGroups(ctx, tab, gs...)
}

// datasetGroups is groupsFromDataset's table and groups.
func datasetGroups(ds *rdf.Dataset) ([]cind.Capture, []capture.Group) {
	members := map[rdf.Value]map[cind.Capture]struct{}{}
	add := func(v rdf.Value, c cind.Capture) {
		g, ok := members[v]
		if !ok {
			g = map[cind.Capture]struct{}{}
			members[v] = g
		}
		g[c] = struct{}{}
	}
	for _, t := range ds.Triples {
		for _, proj := range rdf.Attrs {
			b, g := proj.Others()
			add(t.Get(proj), cind.Capture{Proj: proj, Cond: cind.Unary(b, t.Get(b))})
			add(t.Get(proj), cind.Capture{Proj: proj, Cond: cind.Unary(g, t.Get(g))})
			add(t.Get(proj), cind.Capture{Proj: proj, Cond: cind.Binary(b, t.Get(b), g, t.Get(g))})
		}
	}
	var lists [][]cind.Capture
	for _, v := range slices.Sorted(maps.Keys(members)) {
		lists = append(lists, slices.Collect(maps.Keys(members[v])))
	}
	tab := table(lists...)
	gs := make([]capture.Group, len(lists))
	for i, l := range lists {
		gs[i] = ids(tab, l...)
		slices.Sort(gs[i])
	}
	return tab, gs
}

// Property: Minimize never keeps an implied CIND and never drops an
// unimplied one, on synthetic inclusion sets.
func TestQuickMinimizeSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var broad []cind.CIND
		seen := map[cind.Inclusion]bool{}
		for i := 0; i < 60; i++ {
			dep := randomCapture(rng)
			ref := randomCapture(rng)
			if dep == ref {
				continue
			}
			inc := cind.Inclusion{Dep: dep, Ref: ref}
			if seen[inc] {
				continue
			}
			seen[inc] = true
			broad = append(broad, cind.CIND{Inclusion: inc, Support: 1 + rng.Intn(5)})
		}
		a := Minimize(broad)
		b := naive.Minimize(broad)
		if len(a) != len(b) {
			return false
		}
		bset := map[cind.Inclusion]bool{}
		for _, c := range b {
			bset[c.Inclusion] = true
		}
		for _, c := range a {
			if !bset[c.Inclusion] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomCapture(rng *rand.Rand) cind.Capture {
	proj := rdf.Attr(rng.Intn(3))
	b, g := proj.Others()
	if rng.Intn(2) == 0 {
		attr := b
		if rng.Intn(2) == 0 {
			attr = g
		}
		return cind.Capture{Proj: proj, Cond: cind.Unary(attr, rdf.Value(rng.Intn(4)))}
	}
	return cind.Capture{Proj: proj, Cond: cind.Binary(b, rdf.Value(rng.Intn(4)), g, rdf.Value(rng.Intn(4)))}
}

func dedup(caps []cind.Capture) []cind.Capture {
	seen := map[cind.Capture]bool{}
	var out []cind.Capture
	for _, c := range caps {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func randomDataset(n, card int) *rdf.Dataset {
	if max := card * 3 * card * card * 2; n > max {
		panic(fmt.Sprintf("randomDataset: %d triples requested, only %d possible", n, max))
	}
	rng := rand.New(rand.NewSource(13))
	ds := rdf.NewDataset()
	seen := map[[3]int]bool{}
	for len(ds.Triples) < n {
		s, p, o := rng.Intn(card*3), rng.Intn(card), rng.Intn(card*2)
		if seen[[3]int{s, p, o}] {
			continue
		}
		seen[[3]int{s, p, o}] = true
		ds.Add(fmt.Sprintf("s%d", s), fmt.Sprintf("p%d", p), fmt.Sprintf("o%d", o))
	}
	return ds
}

// onCluster replays driver on an in-process cluster: the coordinator's
// Context on this goroutine, one worker goroutine per rank.
func onCluster(t *testing.T, workers int, driver func(c *dataflow.Context)) {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "coord.sock")
	var wg sync.WaitGroup
	cl, err := dataflow.StartCluster(dataflow.ClusterConfig{
		Workers: workers, Network: "unix", Addr: addr,
		Spawn: func(rank int) error {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := dataflow.DialWorker("unix", addr, rank)
				if err != nil {
					return
				}
				defer w.Close()
				c := dataflow.NewContext(0, dataflow.WithWorkerConn(w))
				driver(c)
				if c.Err() == nil {
					w.Goodbye()
				}
			}()
			return nil
		},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	c := dataflow.NewContext(0, dataflow.WithCluster(cl))
	driver(c)
	if err := c.Err(); err != nil {
		t.Errorf("cluster run failed: %v", err)
	}
	cl.Close()
	wg.Wait()
}

// TestClosureComputedOnce: the implication closure and the support pruning
// each have several consumers inside BroadCINDs, and each must still run as
// exactly one stage over exactly the groups the process holds — on one
// worker, on two, and on every rank of a 2-rank cluster, where the ranks'
// shares add up to the single-process group count.
func TestClosureComputedOnce(t *testing.T) {
	ds := randomDataset(300, 5)
	const h = 2
	// run extracts on c and returns how many groups this process held.
	run := func(c *dataflow.Context) int64 {
		triples := dataflow.Parallelize(c, "input", ds.Triples)
		fc := fcdetect.Detect(triples, h, fcdetect.Options{})
		groups := capture.BuildGroups(triples, fc, fcdetect.Options{})
		var held int64
		for _, p := range groups.Partitions() {
			held += int64(len(p))
		}
		if _, err := BroadCINDs(groups, Config{Support: h}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		for _, op := range []string{"ext/close", "ext/prune-groups"} {
			var in []int64
			for _, sp := range c.Stats().Spans() {
				ops := []string{sp.Name}
				for _, f := range sp.FusedOps {
					ops = append(ops, f.Name)
				}
				if slices.Contains(ops, op) {
					in = append(in, sp.RecordsIn)
				}
			}
			if len(in) != 1 || in[0] != held {
				t.Errorf("rank %d workers %d: %s ran over %v records, want one span over %d",
					c.Rank(), c.Workers(), op, in, held)
			}
		}
		return held
	}
	want := run(dataflow.NewContext(1))
	if want == 0 {
		t.Fatal("vacuous: no capture groups")
	}
	if got := run(dataflow.NewContext(2)); got != want {
		t.Errorf("2 workers hold %d groups, 1 worker %d", got, want)
	}
	var onRanks atomic.Int64
	onCluster(t, 2, func(c *dataflow.Context) { onRanks.Add(run(c)) })
	if got := onRanks.Load(); got != want {
		t.Errorf("cluster ranks hold %d groups, single process %d", got, want)
	}
}

// TestUnorderedGroupFailsStage: a hand-built group that is not strictly
// ascending in id order must fail the run with a *GroupOrderError at
// ext/close, before the closure, with duplicates as well as inversions and
// with binary members as well as without.
func TestUnorderedGroupFailsStage(t *testing.T) {
	c1 := cap(rdf.Subject, cind.Unary(rdf.Predicate, 1))
	c2 := cap(rdf.Subject, cind.Unary(rdf.Predicate, 2))
	c3 := cap(rdf.Subject, cind.Unary(rdf.Predicate, 3))
	b25 := cap(rdf.Subject, cind.Binary(rdf.Predicate, 2, rdf.Object, 5))
	tab := table([]cind.Capture{c1, c2, c3, b25})
	for name, bad := range map[string][]cind.Capture{
		"inverted":                       {c1, c3, c2},
		"duplicate":                      {c1, c2, c2},
		"inverted with a binary member":  {c3, c1, b25},
		"duplicate with a binary member": {c1, c1, b25},
	} {
		groups := newGroups(dataflow.NewContext(2), tab, ids(tab, c1, c2, c3), ids(tab, bad...), ids(tab, c1, c2))
		got, err := BroadCINDs(groups, Config{Support: 1, DirectExtraction: true})
		var oe *GroupOrderError
		if !errors.As(err, &oe) || len(got) != 0 {
			t.Fatalf("%s: BroadCINDs = %d CINDs, %v; want a *GroupOrderError", name, len(got), err)
		}
		if cind.CompareCaptures(oe.Prev, oe.Next) < 0 {
			t.Errorf("%s: error names an ordered pair: %v", name, oe)
		}
		var se *dataflow.StageError
		if !errors.As(err, &se) || se.Stage != "ext/close" {
			t.Errorf("%s: failure not attributed to ext/close: %v", name, err)
		}
	}
}

// TestUnknownCaptureIDFailsStage: an id at or beyond the table size fails the
// run with ErrCorruptRecord at ext/close, not with an index out of range.
func TestUnknownCaptureIDFailsStage(t *testing.T) {
	c1 := cap(rdf.Subject, cind.Unary(rdf.Predicate, 1))
	c2 := cap(rdf.Subject, cind.Unary(rdf.Predicate, 2))
	tab := table([]cind.Capture{c1, c2})
	for _, bad := range []capture.Group{{0, 2}, {^uint32(0)}} {
		_, err := BroadCINDs(newGroups(dataflow.NewContext(2), tab, capture.Group{0, 1}, bad), Config{Support: 1})
		var se *dataflow.StageError
		if !errors.Is(err, dataflow.ErrCorruptRecord) || !errors.As(err, &se) || se.Stage != "ext/close" {
			t.Errorf("group %v: err = %v, want ErrCorruptRecord at ext/close", bad, err)
		}
	}
}
