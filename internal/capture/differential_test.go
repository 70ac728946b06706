package capture

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/fcdetect"
	"repro/internal/rdf"
)

// prunedSignature drops the captures that occur in fewer than h closed
// groups and the groups that empties — what the extractor's first steps do —
// and renders the rest as a multiset of sorted member lists.
func prunedSignature(closed [][]cind.Capture, h int) map[string]int {
	support := map[cind.Capture]int{}
	for _, g := range closed {
		for _, c := range g {
			support[c]++
		}
	}
	sig := map[string]int{}
	for _, g := range closed {
		var kept []string
		for _, c := range g {
			if support[c] >= h {
				kept = append(kept, fmt.Sprintf("%+v", c))
			}
		}
		if len(kept) > 0 {
			sort.Strings(kept)
			sig[strings.Join(kept, "|")]++
		}
	}
	return sig
}

func equalSignatures(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func inCaptureOrder(cs []cind.Capture) bool {
	return slices.IsSortedFunc(cs, cind.CompareCaptures) && len(slices.Compact(slices.Clone(cs))) == len(cs)
}

// TestGroupsMatchReference is the differential test of the dense-id creator
// against the struct-keyed, Bloom-probed one it replaced (reference_test.go):
// once closed and support-pruned the groups are equal, on seeded random
// datasets across thresholds, workers, the §8.3 projection option and the
// RDFind-NF setting (threshold 1, rules dropped). Unpruned, the reference may
// only hold more: what its Bloom filters admit by mistake.
func TestGroupsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ds := datagen.Random(seed)
		for _, h := range []int{1, 2, 3} {
			for _, w := range []int{1, 2, 4} {
				for _, variant := range []struct{ noPredProj, dropARs bool }{{}, {noPredProj: true}, {dropARs: true}} {
					label := fmt.Sprintf("seed=%d h=%d w=%d %+v", seed, h, w, variant)
					opts := fcdetect.Options{PredicatesOnlyInConditions: variant.noPredProj}
					triples := dataflow.Parallelize(dataflow.NewContext(w), "input", ds.Triples)
					fc := fcdetect.Detect(triples, h, opts)
					if variant.dropARs {
						fc.ARs = nil
					}
					gs := BuildGroups(triples, fc, opts)
					raw := dataflow.Collect(gs.Dataset)
					got, gotMembers := closeAll(gs, raw)
					for i, g := range raw {
						if !inCaptureOrder(render(gs, g)) || !inCaptureOrder(got[i]) {
							t.Fatalf("%s: group or its closure not in capture order: %v", label, g)
						}
					}
					var want [][]cind.Capture
					wantMembers := 0
					for _, g := range dataflow.Collect(referenceBuildGroups(triples, fc, opts)) {
						wantMembers += len(g)
						want = append(want, referenceClose(g))
					}
					gotSig, wantSig := prunedSignature(got, h), prunedSignature(want, h)
					if !equalSignatures(gotSig, wantSig) {
						t.Errorf("%s: closed and pruned groups differ from the reference:\n got %v\nwant %v", label, gotSig, wantSig)
					}
					if gotMembers > wantMembers {
						t.Errorf("%s: %d raw members, the reference has only %d", label, gotMembers, wantMembers)
					}
				}
			}
		}
	}
}

// TestCloseMatchesReference closes random groups both ways, over a table that
// holds every capture the groups are drawn from and so every relaxation.
func TestCloseMatchesReference(t *testing.T) {
	var universe []cind.Capture
	for _, proj := range rdf.Attrs {
		beta, gamma := proj.Others()
		for v1 := rdf.Value(0); v1 < 3; v1++ {
			universe = append(universe, cind.NewCapture(proj, cind.Unary(beta, v1)), cind.NewCapture(proj, cind.Unary(gamma, v1)))
			for v2 := rdf.Value(0); v2 < 3; v2++ {
				universe = append(universe, cind.NewCapture(proj, cind.Binary(beta, v1, gamma, v2)))
			}
		}
	}
	gs := tableOf(t, universe...)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		var members []cind.Capture
		for n := rng.Intn(8); n > 0; n-- {
			members = append(members, universe[rng.Intn(len(universe))])
		}
		g := idsOf(t, gs, members...)
		before := slices.Clone(g)
		var arena []uint32
		got, want := render(gs, gs.Close(g, &arena)), referenceClose(render(gs, g))
		slices.SortFunc(want, cind.CompareCaptures)
		if !slices.Equal(got, want) {
			t.Fatalf("Close(%v) = %+v, reference %+v", g, got, want)
		}
		if !slices.Equal(g, before) {
			t.Fatalf("Close changed its argument")
		}
	}
}

// TestNewGroupsReportsMissingRelaxation: a table without a binary capture's
// unary relaxation is an error, and the closure adds only the relaxation the
// table has.
func TestNewGroupsReportsMissingRelaxation(t *testing.T) {
	binary := cind.NewCapture(rdf.Subject, cind.Binary(rdf.Predicate, 1, rdf.Object, 2))
	gs, err := NewGroups(nil, []cind.Capture{binary, cind.NewCapture(rdf.Subject, cind.Unary(rdf.Predicate, 1))})
	if err == nil {
		t.Fatal("no error for a table without (s, o=2)")
	}
	var arena []uint32
	if got := gs.Close(Group{0}, &arena); !slices.Equal(got, Group{0, 1}) {
		t.Errorf("closure over the broken entry = %v, want [0 1]", got)
	}
}

// TestTableIsInCaptureOrder: ids are ranks, which is what lets sorted
// evidences come out as groups in capture order.
func TestTableIsInCaptureOrder(t *testing.T) {
	ds := randomDataset(400, 5)
	for _, noPredProj := range []bool{false, true} {
		triples := dataflow.Parallelize(dataflow.NewContext(2), "input", ds.Triples)
		tab, err := newTable(fcdetect.Detect(triples, 2, fcdetect.Options{}), noPredProj)
		if err != nil || len(tab.captures) == 0 || !inCaptureOrder(tab.captures) {
			t.Fatalf("noPredProj=%v: %d captures, in order: %v, err %v", noPredProj, len(tab.captures), inCaptureOrder(tab.captures), err)
		}
		for _, c := range tab.captures {
			if noPredProj && c.Proj == rdf.Predicate {
				t.Errorf("capture %+v projects the predicate", c)
			}
		}
	}
}

// TestCutGroupsRejectsUnknownCaptureID: an id the table never issued — the
// all-ones evidence the codec decodes malformed bytes to, or any other — is
// ErrCorruptRecord, not an index out of range.
func TestCutGroupsRejectsUnknownCaptureID(t *testing.T) {
	for _, e := range []evidence{^evidence(0), 7<<32 | 1} {
		if err := cutGroups([]evidence{7 << 32, e}, 1, func(Group) {}); !errors.Is(err, dataflow.ErrCorruptRecord) {
			t.Errorf("evidence %#x: cutGroups says %v", uint64(e), err)
		}
	}
	var groups []Group
	if err := cutGroups([]evidence{9 << 32, 7 << 32, 9 << 32}, 1, func(g Group) { groups = append(groups, g) }); err != nil || len(groups) != 2 {
		t.Errorf("valid evidences: %d groups, err %v", len(groups), err)
	}
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

// TestClusterRunMatchesSingleProcess runs detector and creator on a 2-rank
// cluster — columns, binary counts and evidences cross the wire through
// their codecs — and demands the single-process run's frequent conditions,
// rules and groups, every rank contributing the groups of its own partition.
func TestClusterRunMatchesSingleProcess(t *testing.T) {
	ds := randomDataset(400, 5)
	for _, s := range []string{"x1", "x2", "x3"} {
		ds.Add(s, "rdf:type", "Thing") // o=Thing → p=rdf:type and back
	}
	const h, workers = 2, 2
	run := func(c *dataflow.Context) (*fcdetect.Output, *Groups) {
		triples := dataflow.Parallelize(c, "input", ds.Triples)
		fc := fcdetect.Detect(triples, h, fcdetect.Options{})
		return fc, BuildGroups(triples, fc, fcdetect.Options{})
	}
	wantFC, wantGS := run(dataflow.NewContext(workers))
	want, wantMembers := closeAll(wantGS, dataflow.Collect(wantGS.Dataset))

	var mu sync.Mutex
	var got [][]cind.Capture
	gotMembers := 0
	onCluster(t, workers, func(c *dataflow.Context) {
		fc, gs := run(c)
		parts := gs.Partitions()
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(fc.Unary, wantFC.Unary) || !slices.Equal(fc.Binary, wantFC.Binary) {
			t.Errorf("rank %d: frequent conditions differ from the single-process run", c.Rank())
		}
		if !slices.Equal(fc.ARs, wantFC.ARs) {
			t.Errorf("rank %d: %d rules, single-process run has %d", c.Rank(), len(fc.ARs), len(wantFC.ARs))
		}
		if c.Rank() >= 0 {
			closed, members := closeAll(gs, parts[c.Rank()])
			got, gotMembers = append(got, closed...), gotMembers+members
		}
	})
	if len(wantFC.Binary) == 0 || len(wantFC.ARs) == 0 || len(got) == 0 {
		t.Fatalf("vacuous: %d binary conditions, %d rules, %d groups", len(wantFC.Binary), len(wantFC.ARs), len(got))
	}
	if !equalSignatures(prunedSignature(got, 1), prunedSignature(want, 1)) || gotMembers != wantMembers {
		t.Errorf("cluster groups differ: %d groups / %d members, single-process %d / %d",
			len(got), gotMembers, len(want), wantMembers)
	}
}

// BenchmarkBuildGroups runs the creator over the Freebase analogue at twice
// the size and at the threshold of the benchmark's scan_heavy workload.
func BenchmarkBuildGroups(b *testing.B) {
	ds := datagen.Freebase(2)
	triples := dataflow.Parallelize(dataflow.NewContext(2), "input", ds.Triples)
	fc := fcdetect.Detect(triples, 2000, fcdetect.Options{})
	b.ReportAllocs()
	for b.Loop() {
		if BuildGroups(triples, fc, fcdetect.Options{}).Len() == 0 {
			b.Fatal("no groups")
		}
	}
}
