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
	"time"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/fcdetect"
	"repro/internal/rdf"
)

// prunedSignature closes every group with the given closure, drops the
// captures that occur in fewer than h closed groups and the groups that
// empties — what the extractor's first steps do — and renders the rest as a
// multiset of sorted member lists. members counts the raw, unclosed members.
func prunedSignature(groups []Group, closure func(Group) Group, h int) (sig map[string]int, members int) {
	closed := make([]Group, len(groups))
	support := map[cind.Capture]int{}
	for i, g := range groups {
		members += len(g.Captures)
		closed[i] = closure(g)
		for _, c := range closed[i].Captures {
			support[c]++
		}
	}
	sig = map[string]int{}
	for _, g := range closed {
		var kept []string
		for _, c := range g.Captures {
			if support[c] >= h {
				kept = append(kept, fmt.Sprintf("%+v", c))
			}
		}
		if len(kept) > 0 {
			sort.Strings(kept)
			sig[strings.Join(kept, "|")]++
		}
	}
	return sig, members
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
					got := dataflow.Collect(BuildGroups(triples, fc, opts))
					want := dataflow.Collect(referenceBuildGroups(triples, fc, opts))
					for _, g := range got {
						if !inCaptureOrder(g.Captures) || !inCaptureOrder(Close(g).Captures) {
							t.Fatalf("%s: group or its closure not in capture order: %+v", label, g.Captures)
						}
					}
					gotSig, gotMembers := prunedSignature(got, Close, h)
					wantSig, wantMembers := prunedSignature(want, referenceClose, h)
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

// TestCloseMatchesReference closes random groups in capture order both ways.
func TestCloseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		var g Group
		for n := rng.Intn(8); n > 0; n-- {
			proj := rdf.Attrs[rng.Intn(3)]
			beta, gamma := proj.Others()
			switch v1, v2 := rdf.Value(rng.Intn(3)), rdf.Value(rng.Intn(3)); rng.Intn(3) {
			case 0:
				g.Captures = append(g.Captures, cind.NewCapture(proj, cind.Binary(beta, v1, gamma, v2)))
			case 1:
				g.Captures = append(g.Captures, cind.NewCapture(proj, cind.Unary(beta, v1)))
			default:
				g.Captures = append(g.Captures, cind.NewCapture(proj, cind.Unary(gamma, v2)))
			}
		}
		slices.SortFunc(g.Captures, cind.CompareCaptures)
		g.Captures = slices.Compact(g.Captures)
		before := slices.Clone(g.Captures)
		got, want := Close(g).Captures, referenceClose(g).Captures
		slices.SortFunc(want, cind.CompareCaptures)
		if !slices.Equal(got, want) {
			t.Fatalf("Close(%+v) = %+v, reference %+v", g.Captures, got, want)
		}
		if !slices.Equal(g.Captures, before) {
			t.Fatalf("Close changed its argument")
		}
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
	captures := []cind.Capture{cind.NewCapture(rdf.Subject, cind.Unary(rdf.Predicate, 1))}
	for _, e := range []evidence{^evidence(0), 7<<32 | 1} {
		if err := cutGroups([]evidence{7 << 32, e}, captures, func(Group) {}); !errors.Is(err, dataflow.ErrCorruptRecord) {
			t.Errorf("evidence %#x: cutGroups says %v", uint64(e), err)
		}
	}
	var groups []Group
	if err := cutGroups([]evidence{9 << 32, 7 << 32, 9 << 32}, captures, func(g Group) { groups = append(groups, g) }); err != nil || len(groups) != 2 {
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
		HeartbeatInterval: 20 * time.Millisecond, HeartbeatDeadline: 5 * time.Second,
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
	run := func(c *dataflow.Context) (*fcdetect.Output, [][]Group) {
		triples := dataflow.Parallelize(c, "input", ds.Triples)
		fc := fcdetect.Detect(triples, h, fcdetect.Options{})
		return fc, BuildGroups(triples, fc, fcdetect.Options{}).Partitions()
	}
	wantFC, wantParts := run(dataflow.NewContext(workers))
	wantSig, wantMembers := prunedSignature(slices.Concat(wantParts...), Close, 1)

	var mu sync.Mutex
	var got []Group
	onCluster(t, workers, func(c *dataflow.Context) {
		fc, parts := run(c)
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(fc.Unary, wantFC.Unary) || !slices.Equal(fc.Binary, wantFC.Binary) {
			t.Errorf("rank %d: frequent conditions differ from the single-process run", c.Rank())
		}
		if !slices.Equal(fc.ARs, wantFC.ARs) {
			t.Errorf("rank %d: %d rules, single-process run has %d", c.Rank(), len(fc.ARs), len(wantFC.ARs))
		}
		if c.Rank() >= 0 {
			got = append(got, parts[c.Rank()]...)
		}
	})
	if len(wantFC.Binary) == 0 || len(wantFC.ARs) == 0 || len(got) == 0 {
		t.Fatalf("vacuous: %d binary conditions, %d rules, %d groups", len(wantFC.Binary), len(wantFC.ARs), len(got))
	}
	gotSig, gotMembers := prunedSignature(got, Close, 1)
	if !equalSignatures(gotSig, wantSig) || gotMembers != wantMembers {
		t.Errorf("cluster groups differ: %d groups / %d members, single-process %d / %d",
			len(got), gotMembers, len(slices.Concat(wantParts...)), wantMembers)
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
