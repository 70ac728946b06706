package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cind"
	"repro/internal/extract"
	"repro/internal/fixtures"
	"repro/internal/naive"
	"repro/internal/rdf"
)

// resultKey canonicalizes a result for set comparison.
func cindSet(res *cind.Result) map[cind.CIND]bool {
	out := make(map[cind.CIND]bool, len(res.CINDs))
	for _, c := range res.CINDs {
		out[c] = true
	}
	return out
}

func arSet(res *cind.Result) map[cind.AR]bool {
	out := make(map[cind.AR]bool, len(res.ARs))
	for _, r := range res.ARs {
		out[r] = true
	}
	return out
}

func compareToOracle(t *testing.T, label string, ds *rdf.Dataset, res *cind.Result, want *cind.Result, checkARs bool) {
	t.Helper()
	got := cindSet(res)
	exp := cindSet(want)
	for c := range exp {
		if !got[c] {
			t.Errorf("%s: missing CIND %s", label, c.Format(ds.Dict))
		}
	}
	for c := range got {
		if !exp[c] {
			t.Errorf("%s: spurious CIND %s", label, c.Format(ds.Dict))
		}
	}
	if !checkARs {
		return
	}
	gotARs, expARs := arSet(res), arSet(want)
	for r := range expARs {
		if !gotARs[r] {
			t.Errorf("%s: missing AR %s", label, r.Format(ds.Dict))
		}
	}
	for r := range gotARs {
		if !expARs[r] {
			t.Errorf("%s: spurious AR %s", label, r.Format(ds.Dict))
		}
	}
}

// TestDiscoverMatchesOracle is the central differential test: the full
// pipeline and the RDFind-DE and minimal-first variants must reproduce the
// oracle exactly, across datasets, thresholds, and worker counts.
func TestDiscoverMatchesOracle(t *testing.T) {
	datasets := map[string]*rdf.Dataset{
		"table1":  fixtures.University(),
		"random":  randomDataset(400, 5, 21),
		"skewed":  skewedDataset(500, 17),
		"uniform": randomDataset(250, 12, 5),
	}
	variants := []Variant{Standard, DirectExtraction, MinimalFirst}
	thresholds := []int{1, 2, 4, 8}
	if testing.Short() {
		thresholds = []int{2, 8}
	}
	for name, ds := range datasets {
		for _, h := range thresholds {
			want := naive.Discover(ds, h, naive.Options{})
			for _, v := range variants {
				for _, w := range []int{1, 4} {
					res, stats := Discover(ds, Config{Support: h, Workers: w, Variant: v})
					label := fmt.Sprintf("%s h=%d %v w=%d", name, h, v, w)
					compareToOracle(t, label, ds, res, want, true)
					if stats.Pertinent != len(res.CINDs) || stats.ARs != len(res.ARs) {
						t.Errorf("%s: stats inconsistent with result", label)
					}
				}
			}
		}
	}
}

// TestDiscoverTinyBloomStress forces heavy Bloom false-positive rates (an
// 8-byte filter for candidate sets) so the approximate-validate path must
// correct them. Results must still be exact.
func TestDiscoverTinyBloomStress(t *testing.T) {
	ds := skewedDataset(600, 3)
	for _, h := range []int{2, 4} {
		want := naive.Discover(ds, h, naive.Options{})
		res, _ := Discover(ds, Config{Support: h, Workers: 3, BloomBytes: 8})
		compareToOracle(t, fmt.Sprintf("tiny-bloom h=%d", h), ds, res, want, true)
	}
}

// TestNoFrequentConditionsVariant: RDFind-NF computes no association rules,
// so its result is the pertinent CINDs over the unquotiented universe. Every
// CIND that RDFind reports must also be reported by NF, every NF CIND must
// be valid, broad, and minimal, and NF must report no ARs.
func TestNoFrequentConditionsVariant(t *testing.T) {
	ds := randomDataset(300, 4, 9)
	h := 2
	std, _ := Discover(ds, Config{Support: h, Workers: 2})
	nf, _ := Discover(ds, Config{Support: h, Workers: 2, Variant: NoFrequentConditions})
	if len(nf.ARs) != 0 {
		t.Errorf("NF reported %d ARs, want 0", len(nf.ARs))
	}
	nfSet := cindSet(nf)
	for _, c := range std.CINDs {
		if !nfSet[c] {
			// A standard CIND may be absorbed by an AR-equivalent capture
			// in NF's universe; it must then be *implied* by some NF CIND
			// via the AR equivalence. Verify validity instead of identity.
			if !cind.Holds(ds, c.Inclusion) {
				t.Errorf("standard CIND invalid?! %s", c.Format(ds.Dict))
			}
		}
	}
	for _, c := range nf.CINDs {
		if !cind.Holds(ds, c.Inclusion) {
			t.Errorf("NF reported invalid CIND %s", c.Format(ds.Dict))
		}
		if c.Support < h || cind.SupportOf(ds, c.Dep) != c.Support {
			t.Errorf("NF support wrong for %s", c.Format(ds.Dict))
		}
		if c.Trivial() {
			t.Errorf("NF reported trivial CIND %s", c.Format(ds.Dict))
		}
	}
}

// TestPredicatesOnlyInConditions mirrors the Freebase-experiment
// configuration (§8.3: no predicate projections).
func TestPredicatesOnlyInConditions(t *testing.T) {
	ds := skewedDataset(400, 13)
	for _, h := range []int{2, 5} {
		want := naive.Discover(ds, h, naive.Options{PredicatesOnlyInConditions: true})
		res, _ := Discover(ds, Config{Support: h, Workers: 2, PredicatesOnlyInConditions: true})
		compareToOracle(t, fmt.Sprintf("pred-only h=%d", h), ds, res, want, true)
	}
}

// TestWorkerCountInvariance: the result must not depend on the parallelism.
func TestWorkerCountInvariance(t *testing.T) {
	ds := skewedDataset(500, 29)
	base, _ := Discover(ds, Config{Support: 3, Workers: 1})
	for _, w := range []int{2, 5, 9} {
		res, _ := Discover(ds, Config{Support: 3, Workers: w})
		if len(res.CINDs) != len(base.CINDs) || len(res.ARs) != len(base.ARs) {
			t.Fatalf("w=%d: %d CINDs / %d ARs, w=1: %d / %d",
				w, len(res.CINDs), len(res.ARs), len(base.CINDs), len(base.ARs))
		}
		baseSet := cindSet(base)
		for _, c := range res.CINDs {
			if !baseSet[c] {
				t.Errorf("w=%d: CIND %s not in w=1 result", w, c.Format(ds.Dict))
			}
		}
	}
}

// TestSupportMonotonicity: raising h can only shrink the CIND result.
func TestSupportMonotonicity(t *testing.T) {
	ds := skewedDataset(400, 3)
	prev := -1
	for _, h := range []int{1, 2, 4, 8, 16, 1 << 20} {
		res, _ := Discover(ds, Config{Support: h, Workers: 2})
		n := len(res.CINDs) + len(res.ARs)
		if prev >= 0 && n > prev {
			t.Errorf("h=%d: result grew from %d to %d statements", h, prev, n)
		}
		prev = n
		for _, c := range res.CINDs {
			if c.Support < h {
				t.Errorf("h=%d: CIND with support %d reported", h, c.Support)
			}
		}
	}
	// An absurd threshold yields nothing.
	res, _ := Discover(ds, Config{Support: 1 << 20, Workers: 2})
	if len(res.CINDs) != 0 || len(res.ARs) != 0 {
		t.Errorf("h=2^20 still returned %d CINDs, %d ARs", len(res.CINDs), len(res.ARs))
	}
}

func TestDiscoverEmptyAndDegenerate(t *testing.T) {
	empty := rdf.NewDataset()
	res, stats := Discover(empty, Config{Support: 0, Workers: 0})
	if len(res.CINDs) != 0 || len(res.ARs) != 0 || stats.Triples != 0 {
		t.Errorf("empty dataset produced output")
	}
	one := rdf.NewDataset()
	one.Add("a", "b", "c")
	res, _ = Discover(one, Config{Support: 1, Workers: 2})
	for _, c := range res.CINDs {
		if !cind.Holds(one, c.Inclusion) {
			t.Errorf("invalid CIND on single-triple dataset: %s", c.Format(one.Dict))
		}
	}
}

// TestLoadLimit: a tiny limit makes TryDiscover fail with the sentinel
// error; an ample one returns the usual result; Discover panics on a
// violated limit instead of returning garbage.
func TestLoadLimit(t *testing.T) {
	ds := skewedDataset(400, 7)
	_, _, err := TryDiscover(ds, Config{Support: 2, Workers: 2, LoadLimit: 10})
	if !errors.Is(err, extract.ErrLoadLimit) {
		t.Fatalf("tiny load limit not enforced: %v", err)
	}
	res, _, err := TryDiscover(ds, Config{Support: 2, Workers: 2, LoadLimit: 1 << 40})
	if err != nil || len(res.CINDs) == 0 {
		t.Errorf("ample limit failed: %v", err)
	}
	// The minimal-first variant enforces the limit too.
	_, _, err = TryDiscover(ds, Config{Support: 2, Workers: 2, Variant: MinimalFirst, LoadLimit: 10})
	if !errors.Is(err, extract.ErrLoadLimit) {
		t.Errorf("minimal-first ignored the load limit: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Discover did not panic on a violated load limit")
		}
	}()
	Discover(ds, Config{Support: 2, Workers: 2, LoadLimit: 10})
}

// TestIDSpaceErrorSurfaces: a triple whose term id the packed keys cannot
// hold ends every variant's run with the typed error, not a panic and not a
// result computed from colliding keys.
func TestIDSpaceErrorSurfaces(t *testing.T) {
	ds := fixtures.University()
	ds.Triples = append(ds.Triples, rdf.Triple{S: 0, P: 1, O: rdf.MaxValue + 7})
	for _, v := range []Variant{Standard, DirectExtraction, NoFrequentConditions, MinimalFirst} {
		res, stats, err := TryDiscover(ds, Config{Support: 2, Workers: 2, Variant: v})
		var ide *rdf.IDSpaceError
		if !errors.As(err, &ide) || ide.ID != rdf.MaxValue+7 || res != nil || stats == nil {
			t.Errorf("%v: res=%v err=%v, want an *rdf.IDSpaceError for id %d", v, res, err, rdf.MaxValue+7)
		}
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		Standard: "RDFind", DirectExtraction: "RDFind-DE",
		NoFrequentConditions: "RDFind-NF", MinimalFirst: "RDFind-MF",
		Variant(99): "unknown",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("Variant(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}

// randomDataset generates duplicate-free triples with moderate skew.
func randomDataset(n, card int, seed int64) *rdf.Dataset {
	rng := rand.New(rand.NewSource(seed))
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

// skewedDataset mimics the rdf:type effect: a handful of predicates carry
// most triples, producing dominant capture groups (§7.1).
func skewedDataset(n int, seed int64) *rdf.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := rdf.NewDataset()
	seen := map[[3]int]bool{}
	classes := []string{"Person", "Place", "Work", "Species"}
	for len(ds.Triples) < n {
		s := rng.Intn(n / 3)
		var p, o int
		if rng.Intn(100) < 60 { // 60% of triples are rdf:type statements
			p = 0
			o = rng.Intn(len(classes))
		} else {
			p = 1 + rng.Intn(6)
			o = len(classes) + rng.Intn(n/4)
		}
		if seen[[3]int{s, p, o}] {
			continue
		}
		seen[[3]int{s, p, o}] = true
		var pred string
		if p == 0 {
			pred = "rdf:type"
		} else {
			pred = fmt.Sprintf("p%d", p)
		}
		var obj string
		if p == 0 {
			obj = classes[o]
		} else {
			obj = fmt.Sprintf("o%d", o)
		}
		ds.Add(fmt.Sprintf("s%d", s), pred, obj)
	}
	return ds
}
