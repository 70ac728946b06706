// Package extract implements RDFind's CINDExtractor (§7, Fig. 6): it turns
// capture groups into the set of broad CINDs and then consolidates them into
// the pertinent (minimal ∧ broad) CINDs.
//
// The extractor follows the paper's recipe for cracking dominant capture
// groups: capture-support pruning (the second phase of lazy pruning), load
// estimation and work-unit splitting, the approximate-validate candidate
// generation with fixed-size Bloom filters (Algorithm 3), and a final
// validation pass for candidates with Bloom lineage. Disabling the pruning
// and balancing steps yields the RDFind-DE baseline of §8.5; both variants
// produce identical results.
package extract

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bloom"
	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/dataflow"
)

// ErrLoadLimit reports that the estimated extraction load (the number of
// candidate-set entries generation would materialize) exceeds the configured
// limit. It stands in for the out-of-memory failures the paper observed for
// RDFind-DE on the DBpedia datasets at small supports (Fig. 13).
var ErrLoadLimit = errors.New("extract: extraction load exceeds the configured limit")

// Arity restricts which captures may serve as dependent or referenced side
// of generated candidates. The minimal-first strategy (§8.6) uses it to
// extract one condition-arity class (Ψ1:1, Ψ1:2, Ψ2:1, Ψ2:2) per pass.
type Arity uint8

const (
	AnyArity Arity = iota
	UnaryOnly
	BinaryOnly
)

func (a Arity) matches(c cind.Capture) bool {
	switch a {
	case UnaryOnly:
		return !c.Cond.IsBinary()
	case BinaryOnly:
		return c.Cond.IsBinary()
	}
	return true
}

// Config tunes the extractor.
type Config struct {
	// Support is the broadness threshold h.
	Support int
	// DirectExtraction disables capture-support pruning, load balancing,
	// and the approximate-validate strategy, reverting to the basic
	// extraction of §7.1 (the RDFind-DE variant).
	DirectExtraction bool
	// BloomBytes sizes the per-candidate-set Bloom filters; the paper found
	// 64 bytes to perform best (§7.2). Zero selects 64.
	BloomBytes int
	// DepArity and RefArity restrict candidate generation to one condition
	// arity per side (minimal-first strategy). The zero value admits all.
	DepArity, RefArity Arity
	// LoadLimit caps the estimated candidate-set entries (|G|² per exact
	// group, |G| per Bloom-encoded work unit); 0 means unlimited. Exceeding
	// it aborts extraction with ErrLoadLimit, emulating a memory-bound run.
	LoadLimit int64
	// ForceBloomUnits routes every capture group through the Bloom-encoded
	// work-unit path, never materializing exact |G|² candidate sets. This is
	// the degraded, memory-frugal strategy: O(|G|) load per group at the cost
	// of an extra validation pass. Results are identical to the exact
	// strategy (Bloom false positives cannot survive validation).
	ForceBloomUnits bool
	// DegradeOnLoadLimit turns a LoadLimit breach into a degradation point:
	// instead of failing with ErrLoadLimit, extraction is re-planned with
	// ForceBloomUnits and only fails if even the degraded load exceeds the
	// limit. Ignored under DirectExtraction, which the paper defines as
	// exact-only (its memory failures are the point of Fig. 13).
	DegradeOnLoadLimit bool
	// SpillOnLoadLimit turns a LoadLimit breach into a spill point instead:
	// the exact plan is kept unchanged and the breach is simply recorded,
	// trusting the engine's memory budget to take the oversized shuffle state
	// out of core (the Context must carry a budget and the extract codecs are
	// registered at package load). It takes precedence over
	// DegradeOnLoadLimit and — unlike degradation — also applies under
	// DirectExtraction, since spilling does not change the plan and therefore
	// cannot violate the exact-only definition of RDFind-DE.
	SpillOnLoadLimit bool
	// BitmapSets is ignored. Compile-only shim: benchmark/layers.go:120 is its
	// sole reader, and the next [benchmark] PR removes it.
	BitmapSets bool
}

// Outcome reports how an extraction ran: the estimated load of the executed
// strategy and whether the exact strategy was abandoned for Bloom work units
// after a LoadLimit breach.
type Outcome struct {
	// EstimatedLoad is the candidate-set entries of the strategy that
	// actually ran (or was attempted last).
	EstimatedLoad int64
	// Degraded reports that DegradeOnLoadLimit re-planned the extraction
	// with Bloom work-unit candidate sets.
	Degraded bool
	// Spilled reports that SpillOnLoadLimit absorbed a LoadLimit breach: the
	// exact plan ran unchanged on the engine's spill-to-disk path.
	Spilled bool
}

func (c Config) bloomBytes() int {
	if c.BloomBytes <= 0 {
		return 64
	}
	return c.BloomBytes
}

// GroupOrderError reports a capture group whose captures are not strictly
// ascending under cind.CompareCaptures. The CGCreator emits groups in that
// order and the bitmap candidate sets index into it, so a hand-built group
// that breaks it fails the run instead of yielding a wrong bitmap.
type GroupOrderError struct {
	// Prev and Next are the first adjacent pair with Prev ≥ Next.
	Prev, Next cind.Capture
}

func (e *GroupOrderError) Error() string {
	return fmt.Sprintf("extract: capture group not strictly ascending: %+v before %+v", e.Prev, e.Next)
}

// candSet is a CIND candidate set: a dependent capture's referenced captures
// plus the number of capture groups seen so far (which sums to the support).
// Exactly one representation is set: an exact bitmap (refs+bits: the capture
// universe of the originating group in capture order, shared by all of its
// dependents, with bit i live meaning refs[i] is a candidate) or a Bloom
// filter. The lineage flag records whether any Bloom filter took part in
// building the set; such candidates are uncertain and require validation
// (Algorithm 3 — we track lineage with OR rather than the paper's AND so that
// Bloom false positives can never leak into results).
type candSet struct {
	refs    []cind.Capture
	bits    dataflow.Bitmap
	approx  *bloom.Filter
	count   int
	lineage bool
}

// liveRefs iterates the exact referenced captures in capture order (never
// called on pure-Bloom sets).
func (cs *candSet) liveRefs(f func(cind.Capture)) {
	cs.bits.ForEach(func(i int) { f(cs.refs[i]) })
}

// liveLen returns the exact-set cardinality (0 for pure-Bloom sets).
func (cs *candSet) liveLen() int { return cs.bits.Count() }

// hasExact reports whether the set carries the exact representation rather
// than only a Bloom filter.
func (cs *candSet) hasExact() bool { return cs.refs != nil }

// containsRef reports exact-set membership: binary search over the ordered
// universe plus a bit probe.
func (cs *candSet) containsRef(r cind.Capture) bool {
	i, ok := slices.BinarySearchFunc(cs.refs, r, cind.CompareCaptures)
	return ok && cs.bits.Get(i)
}

// workUnit is a slice of a dominant capture group: the dependent captures
// this unit is responsible for, plus the full group as referenced captures.
type workUnit struct {
	Deps []cind.Capture
	All  []cind.Capture
}

// BroadCINDs extracts all valid CINDs with support ≥ cfg.Support from the
// capture groups. The result includes logically trivial inclusions (they are
// valid CINDs); Minimize removes them. Reflexive statements are excluded.
// Possible errors are ErrLoadLimit (only when cfg.LoadLimit is set) and an
// engine failure surfaced from the dataset's Context.
func BroadCINDs(groups *dataflow.Dataset[capture.Group], cfg Config) ([]cind.CIND, error) {
	res, _, err := BroadCINDsOutcome(groups, cfg)
	return res, err
}

// BroadCINDsOutcome is BroadCINDs with an execution report: the estimated
// candidate-set load and whether the run degraded to Bloom work units.
func BroadCINDsOutcome(groups *dataflow.Dataset[capture.Group], cfg Config) ([]cind.CIND, Outcome, error) {
	h := cfg.Support
	outcome := Outcome{Degraded: false}

	// Expand every group to its implication closure so that Lemma 3's
	// membership test sees subsumed unary captures (see DESIGN.md). Several
	// narrow chains consume the closure (the capture counters, the group
	// pruning, the strategy split), so it is pinned here: a pending chain
	// would replay capture.Close once per consumer.
	closed := dataflow.Map(groups, "ext/close", capture.Close).Materialize()

	// Capture-support pruning (steps 1–3): captures occurring in fewer than
	// h groups cannot take part in any broad CIND — neither as dependent
	// (support too small) nor as referenced (a referenced capture's support
	// bounds the dependent one's from above).
	if !cfg.DirectExtraction {
		closed = pruneBySupport(closed, h)
	}

	forced := cfg.ForceBloomUnits && !cfg.DirectExtraction
	normal, units := planStrategy(closed, cfg, forced)

	// Memory guard: candidate generation materializes |G|² entries per
	// exact group and O(|G|) per Bloom-encoded work unit. The load is known
	// exactly before any allocation, so a bounded run can abort cleanly —
	// or, with DegradeOnLoadLimit, fall back to the all-Bloom strategy whose
	// load is linear rather than quadratic in the group sizes.
	outcome.EstimatedLoad = estimateLoad(normal, units)
	if cfg.LoadLimit > 0 && outcome.EstimatedLoad > cfg.LoadLimit {
		switch {
		case cfg.SpillOnLoadLimit:
			// Keep the exact plan: the engine's memory budget will spill the
			// oversized candidate-set state to disk instead of us trading it
			// for extra Bloom validation work.
			outcome.Spilled = true
		case !cfg.DegradeOnLoadLimit || cfg.DirectExtraction || forced:
			return nil, outcome, fmt.Errorf("%w: %d candidate entries > limit %d",
				ErrLoadLimit, outcome.EstimatedLoad, cfg.LoadLimit)
		default:
			forced = true
			outcome.Degraded = true
			normal, units = planStrategy(closed, cfg, forced)
			outcome.EstimatedLoad = estimateLoad(normal, units)
			if outcome.EstimatedLoad > cfg.LoadLimit {
				return nil, outcome, fmt.Errorf("%w: degraded run still needs %d candidate entries > limit %d",
					ErrLoadLimit, outcome.EstimatedLoad, cfg.LoadLimit)
			}
		}
	}

	// Candidate generation (step 7). Normal groups enumerate exact
	// referenced-capture sets; work units encode the group in a fixed-size
	// Bloom filter, shared per group and cloned per dependent capture.
	bloomBytes := cfg.bloomBytes()
	normalCands := dataflow.FlatMap(normal, "ext/candidates-exact",
		func(g capture.Group, emit func(dataflow.Pair[cind.Capture, *candSet])) {
			// One ordered universe per group, shared by every dependent; each
			// dependent's set is an all-ones bitmap with its own capture
			// cleared — |G|/64 words per candidate.
			universe, err := orderedUniverse(g.Captures, cfg.RefArity)
			if err != nil {
				groups.Context().Fail("ext/candidates-exact", err)
				return
			}
			at := 0 // dep's index in universe, when it is in it
			for _, dep := range g.Captures {
				inUniverse := cfg.RefArity.matches(dep)
				if cfg.DepArity.matches(dep) {
					bits := dataflow.NewBitmap(len(universe))
					bits.SetAll()
					if inUniverse {
						bits.Clear(at)
					}
					emit(dataflow.Pair[cind.Capture, *candSet]{Key: dep, Val: &candSet{refs: universe, bits: bits, count: 1}})
				}
				if inUniverse {
					at++
				}
			}
		})
	unitCands := dataflow.FlatMap(units, "ext/candidates-bloom",
		func(u workUnit, emit func(dataflow.Pair[cind.Capture, *candSet])) {
			shared := bloom.NewBytes(bloomBytes, 4)
			for _, r := range u.All {
				if cfg.RefArity.matches(r) {
					shared.Add(r.Key())
				}
			}
			for _, dep := range u.Deps {
				if !cfg.DepArity.matches(dep) {
					continue
				}
				emit(dataflow.Pair[cind.Capture, *candSet]{
					Key: dep,
					Val: &candSet{approx: shared.Clone(), count: 1, lineage: true},
				})
			}
		})

	// Merge candidate sets per dependent capture (Algorithm 3, step 8).
	all := dataflow.Union(normalCands, unitCands, "ext/concat")
	merged := dataflow.ReduceByKey(all, "ext/merge-candidates", mergeCandSets)

	// Certain candidates become CINDs directly; uncertain ones (Bloom
	// lineage) go through the validation pass (steps 9–10).
	var out []cind.CIND
	uncertain := make(map[cind.Capture]*candSet)
	for _, p := range dataflow.Collect(merged) {
		dep, cs := p.Key, p.Val
		if cs.count < h {
			continue // not broad (only reachable in direct extraction)
		}
		if !cs.lineage {
			cs.liveRefs(func(r cind.Capture) {
				if r != dep {
					out = append(out, cind.CIND{Inclusion: cind.Inclusion{Dep: dep, Ref: r}, Support: cs.count})
				}
			})
			continue
		}
		if cs.hasExact() && cs.liveLen() == 0 {
			continue // dead: no candidate referenced captures remain
		}
		uncertain[dep] = cs
	}
	out = append(out, validate(units, uncertain, cfg.RefArity)...)
	// A failed engine (worker fault, cancellation) drains every stage above
	// into empty datasets; surface the failure instead of an empty result.
	if err := groups.Context().Err(); err != nil {
		return nil, outcome, err
	}
	reg := groups.Context().Stats().Metrics()
	reg.Counter("extract.load.estimated").Add(outcome.EstimatedLoad)
	reg.Counter("extract.broad_cinds").Add(int64(len(out)))
	if outcome.Degraded {
		reg.Counter("extract.degraded_runs").Inc()
	}
	if outcome.Spilled {
		reg.Counter("extract.spill_planned_runs").Inc()
	}
	return out, outcome, nil
}

// planStrategy selects how groups become candidate sets: exact sets for every
// group (direct extraction), the paper's hybrid of exact normal groups plus
// Bloom work units for dominant ones (standard), or Bloom work units for all
// groups (the degraded strategy).
func planStrategy(closed *dataflow.Dataset[capture.Group], cfg Config, forced bool) (*dataflow.Dataset[capture.Group], *dataflow.Dataset[workUnit]) {
	switch {
	case cfg.DirectExtraction:
		return closed, emptyUnits(closed)
	case forced:
		return emptyGroups(closed), splitAll(closed)
	default:
		return splitDominant(closed)
	}
}

// estimateLoad sums the candidate-set entries generation will allocate.
func estimateLoad(normal *dataflow.Dataset[capture.Group], units *dataflow.Dataset[workUnit]) int64 {
	loads := dataflow.MapPartitions(normal, "ext/load-normal",
		func(_ int, groups []capture.Group, emit func(int64)) {
			var load int64
			for _, g := range groups {
				n := int64(len(g.Captures))
				load += n * n
			}
			emit(load)
		})
	total, _ := dataflow.GlobalReduce(loads, "ext/load-sum", func(a, b int64) int64 { return a + b })
	unitLoads := dataflow.MapPartitions(units, "ext/load-units",
		func(_ int, us []workUnit, emit func(int64)) {
			var load int64
			for _, u := range us {
				load += int64(len(u.Deps)) + int64(len(u.All))
			}
			emit(load)
		})
	unitTotal, _ := dataflow.GlobalReduce(unitLoads, "ext/load-units-sum", func(a, b int64) int64 { return a + b })
	return total + unitTotal
}

// pruneBySupport removes captures with fewer than h group memberships from
// every group. Groups that become empty disappear; groups that keep members
// still matter, because each group a dependent capture occurs in both counts
// toward its support and constrains its referenced captures.
func pruneBySupport(closed *dataflow.Dataset[capture.Group], h int) *dataflow.Dataset[capture.Group] {
	counters := dataflow.FlatMap(closed, "ext/capture-counters",
		func(g capture.Group, emit func(dataflow.Pair[cind.Capture, int])) {
			for _, c := range g.Captures {
				emit(dataflow.Pair[cind.Capture, int]{Key: c, Val: 1})
			}
		})
	supports := dataflow.ReduceByKey(counters, "ext/capture-support", func(a, b int) int { return a + b })
	low := dataflow.Filter(supports, "ext/prunable",
		func(p dataflow.Pair[cind.Capture, int]) bool { return p.Val < h })
	prunable := make(map[cind.Capture]struct{})
	for _, p := range dataflow.Collect(low) {
		prunable[p.Key] = struct{}{}
	}
	pruned := dataflow.Map(closed, "ext/prune-groups", func(g capture.Group) capture.Group {
		kept := make([]cind.Capture, 0, len(g.Captures))
		for _, c := range g.Captures {
			if _, drop := prunable[c]; !drop {
				kept = append(kept, c)
			}
		}
		return capture.Group{Captures: kept}
	})
	// The strategy split and the load estimate both consume the pruned
	// groups; pin them like the closure.
	return dataflow.Filter(pruned, "ext/drop-empty",
		func(g capture.Group) bool { return len(g.Captures) > 0 }).Materialize()
}

// splitDominant implements the load balancing of §7.2 (steps 4–7): the
// processing load of a group is |G|²; groups above the per-worker average
// are dominant and get split into w work units that are spread across all
// workers. Normal groups pass through unchanged.
func splitDominant(closed *dataflow.Dataset[capture.Group]) (*dataflow.Dataset[capture.Group], *dataflow.Dataset[workUnit]) {
	ctx := closed.Context()
	w := ctx.Workers()

	// Estimate per-worker loads and derive the average (steps 4–6).
	loads := dataflow.MapPartitions(closed, "ext/estimate-load",
		func(_ int, groups []capture.Group, emit func(int64)) {
			var load int64
			for _, g := range groups {
				n := int64(len(g.Captures))
				load += n * n
			}
			emit(load)
		})
	total, _ := dataflow.GlobalReduce(loads, "ext/total-load", func(a, b int64) int64 { return a + b })
	avg := total / int64(w)

	isDominant := func(g capture.Group) bool {
		n := int64(len(g.Captures))
		return n*n > avg
	}
	normal := dataflow.Filter(closed, "ext/normal-groups",
		func(g capture.Group) bool { return !isDominant(g) })
	dominant := dataflow.Filter(closed, "ext/dominant-groups", isDominant)
	return normal, splitUnits(dominant, w)
}

// splitAll turns every group into Bloom-encoded work units — the degraded,
// linear-load strategy selected by ForceBloomUnits or a LoadLimit breach.
func splitAll(closed *dataflow.Dataset[capture.Group]) *dataflow.Dataset[workUnit] {
	return splitUnits(closed, closed.Context().Workers())
}

// splitUnits splits each group into up to w work units and spreads them
// evenly across the workers.
func splitUnits(groups *dataflow.Dataset[capture.Group], w int) *dataflow.Dataset[workUnit] {
	units := dataflow.FlatMap(groups, "ext/split-units",
		func(g capture.Group, emit func(dataflow.Pair[int, workUnit])) {
			n := len(g.Captures)
			per := (n + w - 1) / w
			spread := int(g.Captures[0].Key()) // stable per-group offset
			for i := 0; i*per < n; i++ {
				lo, hi := i*per, (i+1)*per
				if hi > n {
					hi = n
				}
				emit(dataflow.Pair[int, workUnit]{
					Key: spread + i,
					Val: workUnit{Deps: g.Captures[lo:hi:hi], All: g.Captures},
				})
			}
		})
	placed := dataflow.PartitionBy(units, "ext/place-units",
		func(p dataflow.Pair[int, workUnit]) int { return p.Key })
	return dataflow.Map(placed, "ext/unwrap-units",
		func(p dataflow.Pair[int, workUnit]) workUnit { return p.Val })
}

// emptyUnits returns an empty work-unit dataset in the same context.
func emptyUnits(d *dataflow.Dataset[capture.Group]) *dataflow.Dataset[workUnit] {
	return dataflow.Parallelize(d.Context(), "ext/no-units", []workUnit(nil))
}

// emptyGroups returns an empty group dataset in the same context.
func emptyGroups(d *dataflow.Dataset[capture.Group]) *dataflow.Dataset[capture.Group] {
	return dataflow.Parallelize(d.Context(), "ext/no-normal", []capture.Group(nil))
}

// mergeCandSets is Algorithm 3: intersect two candidate sets, distinguishing
// exact/exact, Bloom/Bloom, and mixed cases, summing the group counts and
// propagating Bloom lineage. The intersection is associative and commutative
// — probing an element against two Bloom filters succeeds exactly when it
// passes their bit-wise AND — so reduction order does not matter.
func mergeCandSets(a, b *candSet) *candSet {
	count := a.count + b.count
	lineage := a.lineage || b.lineage
	var res *candSet
	if a.refs != nil || b.refs != nil {
		res = mergeIntoBits(a, b)
	} else {
		a.approx.Intersect(b.approx)
		res = a
	}
	res.count = count
	res.lineage = lineage
	return res
}

// mergeIntoBits intersects when at least one side is exact: the exact side
// (the smaller-cardinality one if both are) tests each live capture against
// the other side and clears misses; against a Bloom filter the survivors are
// the (still possibly over-approximate) exact set. Clearing bits never
// touches the shared universe slice, so siblings of the originating group are
// unaffected. The caller overwrites count/lineage.
func mergeIntoBits(a, b *candSet) *candSet {
	if a.refs == nil || (b.refs != nil && a.bits.Count() > b.bits.Count()) {
		a, b = b, a
	}
	if b.refs == nil {
		a.bits.ForEach(func(i int) {
			if !b.approx.Test(a.refs[i].Key()) {
				a.bits.Clear(i)
			}
		})
		return a
	}
	// Both universes are in capture order and a's live bits come in ascending
	// order, so one cursor into b.refs only ever moves forward.
	pos := 0
	a.bits.ForEach(func(i int) {
		c := a.refs[i]
		pos = gallopCapture(b.refs, pos, c)
		if pos == len(b.refs) || b.refs[pos] != c || !b.bits.Get(pos) {
			a.bits.Clear(i)
		}
	})
	return a
}

// gallopCapture returns the first index i ≥ from with refs[i] ≥ c in a
// universe in capture order, given that every entry before from is less than
// c: a binary search resumed from a previous hit. It doubles its step from
// `from` until it overshoots c, then binary-searches the last step, so a run
// of lookups with ascending c costs O(log gap) each and O(|refs|) at most in
// total, however unequal the two sides are.
func gallopCapture(refs []cind.Capture, from int, c cind.Capture) int {
	lo, step := from, 1
	for lo+step <= len(refs) && cind.CompareCaptures(refs[lo+step-1], c) < 0 {
		lo += step
		step <<= 1
	}
	// refs[lo-1] < c (or lo == from) and the answer is at most lo+step-1.
	hi := min(lo+step-1, len(refs))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cind.CompareCaptures(refs[mid], c) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// orderedUniverse filters a group's captures by the referenced arity into a
// fresh slice — the capture universe bitmap sets index into — and reports a
// *GroupOrderError unless the group is strictly ascending in capture order.
func orderedUniverse(captures []cind.Capture, ref Arity) ([]cind.Capture, error) {
	universe := make([]cind.Capture, 0, len(captures))
	for i, c := range captures {
		if i > 0 && cind.CompareCaptures(captures[i-1], c) >= 0 {
			return nil, &GroupOrderError{Prev: captures[i-1], Next: c}
		}
		if ref.matches(c) {
			universe = append(universe, c)
		}
	}
	return universe, nil
}

// validate resolves uncertain candidate sets (step 9–10): the uncertain map
// is broadcast, every work unit emits the exact intersection of its group
// with the candidate's referenced captures, and intersecting those
// validation sets across all of a dependent capture's dominant groups yields
// the exact referenced captures (Bloom false positives cannot survive every
// group's probe).
func validate(units *dataflow.Dataset[workUnit], uncertain map[cind.Capture]*candSet, refArity Arity) []cind.CIND {
	if len(uncertain) == 0 {
		return nil
	}
	vsets := dataflow.FlatMap(units, "ext/validation-sets",
		func(u workUnit, emit func(dataflow.Pair[cind.Capture, map[cind.Capture]struct{}])) {
			for _, dep := range u.Deps {
				cs, ok := uncertain[dep]
				if !ok {
					continue
				}
				refs := make(map[cind.Capture]struct{})
				for _, r := range u.All {
					if r == dep || !refArity.matches(r) {
						continue
					}
					if cs.hasExact() {
						if cs.containsRef(r) {
							refs[r] = struct{}{}
						}
					} else if cs.approx.Test(r.Key()) {
						refs[r] = struct{}{}
					}
				}
				emit(dataflow.Pair[cind.Capture, map[cind.Capture]struct{}]{Key: dep, Val: refs})
			}
		})
	final := dataflow.ReduceByKey(vsets, "ext/validate",
		func(a, b map[cind.Capture]struct{}) map[cind.Capture]struct{} {
			if len(a) > len(b) {
				a, b = b, a
			}
			for r := range a {
				if _, ok := b[r]; !ok {
					delete(a, r)
				}
			}
			return a
		})
	var out []cind.CIND
	for _, p := range dataflow.Collect(final) {
		dep, refs := p.Key, p.Val
		cs := uncertain[dep]
		for r := range refs {
			if r != dep {
				out = append(out, cind.CIND{Inclusion: cind.Inclusion{Dep: dep, Ref: r}, Support: cs.count})
			}
		}
	}
	return out
}
