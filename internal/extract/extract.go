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

// admitted returns, per capture id, whether a admits the capture.
func (a Arity) admitted(groups *capture.Groups) []bool {
	ok := make([]bool, len(groups.Captures))
	for id, c := range groups.Captures {
		ok[id] = a == AnyArity || c.Cond.IsBinary() == (a == BinaryOnly)
	}
	return ok
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

// GroupOrderError reports a capture group whose ids are not strictly
// ascending, the order the closure and the intersections rely on: a
// hand-built group that breaks it fails the run at ext/close.
type GroupOrderError struct {
	// Prev and Next are the captures of the first adjacent pair with Prev ≥ Next.
	Prev, Next cind.Capture
}

func (e *GroupOrderError) Error() string {
	return fmt.Sprintf("extract: capture group not strictly ascending: %+v before %+v", e.Prev, e.Next)
}

// candSet is a dependent capture's CIND candidate set: its candidate
// referenced captures, either as ascending ids (refs non-nil) or as a Bloom
// filter over ids, and the number of groups seen so far (which sums to the
// support). lineage records that a Bloom filter took part; such candidates
// need validation (Algorithm 3, with lineage ORed rather than the paper's
// AND so that no Bloom false positive can leak into results).
type candSet struct {
	refs    []uint32
	approx  *bloom.Filter
	count   int
	lineage bool
}

// candidate is a candidate set keyed by its dependent capture's id.
type candidate = dataflow.Pair[uint32, *candSet]

// workUnit is a slice of a dominant group: the ids of the dependents it is
// responsible for, and the whole group as referenced captures.
type workUnit struct {
	Deps []uint32
	All  []uint32
}

// BroadCINDs extracts all valid CINDs with support ≥ cfg.Support from the
// capture groups. The result includes logically trivial inclusions (they are
// valid CINDs); Minimize removes them. Reflexive statements are excluded.
// Possible errors are ErrLoadLimit (only when cfg.LoadLimit is set), a
// *GroupOrderError for a hand-built group out of order, and an engine failure
// surfaced from the groups' Context.
func BroadCINDs(groups *capture.Groups, cfg Config) ([]cind.CIND, error) {
	res, _, err := BroadCINDsOutcome(groups, cfg)
	return res, err
}

// BroadCINDsOutcome is BroadCINDs with an execution report: the estimated
// candidate-set load and whether the run degraded to Bloom work units.
func BroadCINDsOutcome(groups *capture.Groups, cfg Config) ([]cind.CIND, Outcome, error) {
	ctx, captures := groups.Context(), groups.Captures

	// Expand every group, once its ids are known to be ascending table ids,
	// to its implication closure so that Lemma 3's membership test sees
	// subsumed unary captures (see DESIGN.md). Pinned: several stages read it.
	closed := dataflow.MapPartitions(groups.Dataset, "ext/close",
		func(_ int, gs []capture.Group, emit func(capture.Group)) {
			var arena []uint32
			for _, g := range gs {
				if err := checkGroup(g, captures); err != nil {
					ctx.Fail("ext/close", err)
					return
				}
				emit(groups.Close(g, &arena))
			}
		}).Materialize()

	// Capture-support pruning (steps 1–3): captures occurring in fewer than
	// h groups cannot take part in any broad CIND — neither as dependent
	// (support too small) nor as referenced (a referenced capture's support
	// bounds the dependent one's from above).
	if !cfg.DirectExtraction {
		closed = pruneBySupport(closed, len(captures), cfg.Support)
	}

	// plan decides by its size whether a group is dominant, getting Bloom work
	// units instead of exact candidate sets — none is under direct extraction,
	// all are under the degraded strategy, and in the paper's hybrid (§7.2,
	// steps 4–6) those whose load |G|² exceeds the per-worker average. It also
	// estimates the load: |G|² per exact group and |G| + k·|G| for a dominant
	// group's k units. Known before any allocation, the load lets a bounded run
	// abort cleanly — or, with DegradeOnLoadLimit, fall back to all-Bloom.
	square := sumGroups(closed, "ext/estimate-load", func(n int64) int64 { return n * n })
	w := int64(ctx.Workers())
	plan := func(forced bool) (func(n int64) bool, int64) {
		dominant := func(n int64) bool { return forced || !cfg.DirectExtraction && n*n > square/w }
		return dominant, square + sumGroups(closed, "ext/load-units", func(n int64) int64 {
			if n == 0 || !dominant(n) {
				return 0
			}
			per := (n + w - 1) / w
			return n + (n+per-1)/per*n - n*n
		})
	}
	forced := cfg.ForceBloomUnits && !cfg.DirectExtraction
	dominant, load := plan(forced)
	outcome := Outcome{EstimatedLoad: load}
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
			outcome.Degraded = true
			dominant, outcome.EstimatedLoad = plan(true)
			if outcome.EstimatedLoad > cfg.LoadLimit {
				return nil, outcome, fmt.Errorf("%w: degraded run still needs %d candidate entries > limit %d",
					ErrLoadLimit, outcome.EstimatedLoad, cfg.LoadLimit)
			}
		}
	}

	// Candidate generation (step 7). Normal groups fold into one exact set per
	// dependent and partition; work units encode the group in a fixed-size
	// Bloom filter, shared per unit and cloned per dependent capture.
	depOK, refOK := cfg.DepArity.admitted(groups), cfg.RefArity.admitted(groups)
	exact := dataflow.MapPartitions(closed, "ext/candidates-exact",
		func(_ int, gs []capture.Group, emit func(candidate)) { foldExact(gs, dominant, depOK, refOK, emit) })
	units := splitUnits(closed, dominant, len(captures))
	bloomBytes := cfg.bloomBytes()
	approx := dataflow.FlatMap(units, "ext/candidates-bloom",
		func(u workUnit, emit func(candidate)) {
			shared := bloom.NewBytes(bloomBytes, bloomHashes)
			for _, r := range u.All {
				if refOK[r] {
					shared.Add(uint64(r))
				}
			}
			for _, dep := range u.Deps {
				if depOK[dep] {
					emit(candidate{Key: dep, Val: &candSet{approx: shared.Clone(), count: 1, lineage: true}})
				}
			}
		})

	// Merge candidate sets per dependent capture (Algorithm 3, step 8).
	all := dataflow.Union(exact, approx, "ext/concat")
	merged := dataflow.ReduceByKey(all, "ext/merge-candidates", mergeCandSets)

	// Certain candidates become CINDs directly; uncertain ones (Bloom
	// lineage) go through the validation pass (steps 9–10). emit renders
	// dep ⊆ r for every r in refs but dep: where ids become capture structs.
	var out []cind.CIND
	emit := func(dep uint32, refs []uint32, support int) {
		for _, r := range refs {
			if r != dep {
				out = append(out, cind.CIND{Inclusion: cind.Inclusion{Dep: captures[dep], Ref: captures[r]}, Support: support})
			}
		}
	}
	uncertain := make(map[uint32]*candSet)
	for _, p := range dataflow.Collect(merged) {
		dep, cs := p.Key, p.Val
		if err := checkSet(dep, cs, len(captures)); err != nil {
			ctx.Fail("ext/merge-candidates", err)
			break
		}
		switch {
		case cs.count < cfg.Support: // not broad (only reachable in direct extraction)
		case !cs.lineage:
			emit(dep, cs.refs, cs.count)
		case cs.refs != nil && len(cs.refs) == 0: // dead: no candidates remain
		default:
			uncertain[dep] = cs
		}
	}
	validate(units, uncertain, refOK, emit)
	// A failed engine (worker fault, cancellation) drains every stage above
	// into empty datasets; surface the failure instead of an empty result.
	if err := ctx.Err(); err != nil {
		return nil, outcome, err
	}
	reg := ctx.Stats().Metrics()
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

// checkGroup reports ids out of order or beyond the table.
func checkGroup(g capture.Group, captures []cind.Capture) error {
	for i, id := range g {
		switch {
		case int(id) >= len(captures):
			return fmt.Errorf("%w: capture id %d in a table of %d", dataflow.ErrCorruptRecord, id, len(captures))
		case i > 0 && g[i-1] >= id:
			return &GroupOrderError{Prev: captures[g[i-1]], Next: captures[id]}
		}
	}
	return nil
}

// supportColumn counts, per capture id, the groups the capture occurs in.
// add sums two into a; a nil column (bytes that decoded to none) poisons it.
type supportColumn []uint32

func (a supportColumn) add(b supportColumn) supportColumn {
	if a == nil || b == nil || len(a) != len(b) {
		return nil
	}
	for i, n := range b {
		a[i] += n
	}
	return a
}

// pruneBySupport removes captures with fewer than h group memberships, as
// counted in one column over the n ids per partition and summed across
// partitions and ranks. Emptied groups disappear; the others still count
// toward their dependents' supports. The kept ids go into a new arena per
// partition, so the closed groups stay intact for further passes over them.
func pruneBySupport(closed *dataflow.Dataset[capture.Group], n, h int) *dataflow.Dataset[capture.Group] {
	ctx := closed.Context()
	columns := dataflow.MapPartitions(closed, "ext/support-columns",
		func(_ int, gs []capture.Group, emit func(supportColumn)) {
			col := make(supportColumn, n)
			for _, g := range gs {
				for _, id := range g {
					col[id]++
				}
			}
			emit(col)
		})
	support, _ := dataflow.GlobalReduce(columns, "ext/support-sum", supportColumn.add)
	if support == nil || len(support) != n {
		ctx.Fail("ext/support-sum", fmt.Errorf("%w: support column of %d counters for %d captures",
			dataflow.ErrCorruptRecord, len(support), n))
	}
	return dataflow.MapPartitions(closed, "ext/prune-groups",
		func(_ int, gs []capture.Group, emit func(capture.Group)) {
			size := 0
			for _, g := range gs {
				size += len(g)
			}
			arena := make([]uint32, 0, size)
			for _, g := range gs {
				start := len(arena)
				for _, id := range g {
					if int(support[id]) >= h {
						arena = append(arena, id)
					}
				}
				if len(arena) > start {
					emit(arena[start:len(arena):len(arena)])
				}
			}
		}).Materialize()
}

// sumGroups sums f over the group sizes, across partitions and ranks.
func sumGroups(groups *dataflow.Dataset[capture.Group], name string, f func(n int64) int64) int64 {
	sums := dataflow.MapPartitions(groups, name,
		func(_ int, gs []capture.Group, emit func(int64)) {
			var sum int64
			for _, g := range gs {
				sum += f(int64(len(g)))
			}
			emit(sum)
		})
	total, _ := dataflow.GlobalReduce(sums, name+"-sum", func(a, b int64) int64 { return a + b })
	return total
}

// splitUnits splits each dominant group into up to w work units (§7.2,
// step 7) and spreads them evenly across the workers. Units that crossed a
// process are checked against the table of n captures.
func splitUnits(closed *dataflow.Dataset[capture.Group], dominant func(n int64) bool, n int) *dataflow.Dataset[workUnit] {
	ctx := closed.Context()
	w := ctx.Workers()
	units := dataflow.FlatMap(closed, "ext/split-units",
		func(g capture.Group, emit func(dataflow.Pair[uint32, workUnit])) {
			if !dominant(int64(len(g))) {
				return
			}
			per := (len(g) + w - 1) / w
			for i := 0; i*per < len(g); i++ {
				lo, hi := i*per, min((i+1)*per, len(g))
				// The group's first id is a stable per-group offset.
				emit(dataflow.Pair[uint32, workUnit]{Key: g[0] + uint32(i), Val: workUnit{Deps: g[lo:hi:hi], All: g}})
			}
		})
	placed := dataflow.PartitionBy(units, "ext/place-units",
		func(p dataflow.Pair[uint32, workUnit]) int { return int(p.Key) })
	return dataflow.FlatMap(placed, "ext/unwrap-units",
		func(p dataflow.Pair[uint32, workUnit], emit func(workUnit)) {
			if err := checkIDs(n, p.Val.Deps, p.Val.All); err != nil {
				ctx.Fail("ext/unwrap-units", err)
				return
			}
			emit(p.Val)
		})
}

// foldExact folds a partition's normal groups into one exact candidate set
// per dependent capture: the first group a dependent occurs in gives it the
// group's referenced captures but itself, every later one intersects them
// away. That is the merge of Algorithm 3 run as the groups are read, so no
// set per group and dependent ever exists.
func foldExact(gs []capture.Group, dominant func(n int64) bool, depOK, refOK []bool, emit func(candidate)) {
	sets := make([]*candSet, len(depOK))
	var universe []uint32
	for _, g := range gs {
		if dominant(int64(len(g))) {
			continue
		}
		universe = universe[:0]
		for _, id := range g {
			if refOK[id] {
				universe = append(universe, id)
			}
		}
		for _, dep := range g {
			switch cs := sets[dep]; {
			case !depOK[dep]:
			case cs != nil:
				cs.refs = intersect(cs.refs, universe)
				cs.count++
			default:
				refs := append(make([]uint32, 0, len(universe)), universe...)
				sets[dep] = &candSet{refs: slices.DeleteFunc(refs, func(r uint32) bool { return r == dep }), count: 1}
			}
		}
	}
	for dep, cs := range sets {
		if cs != nil {
			emit(candidate{Key: uint32(dep), Val: cs})
		}
	}
}

// mergeCandSets is Algorithm 3: intersect two candidate sets — exact/exact,
// Bloom/Bloom (bit-wise AND) or mixed, where the exact side keeps what the
// filter admits — summing the group counts and propagating lineage. It is
// associative and commutative, so reduction order does not matter. A nil set
// (bytes that decoded to none) or filters of two geometries poison the result.
func mergeCandSets(a, b *candSet) *candSet {
	if a == nil || b == nil {
		return nil
	}
	if a.refs == nil {
		a, b = b, a
	}
	switch {
	case b.refs != nil:
		a.refs = intersect(a.refs, b.refs)
	case a.refs != nil:
		a.refs = slices.DeleteFunc(a.refs, func(r uint32) bool { return !b.approx.Test(uint64(r)) })
	default:
		an, ak := a.approx.Geometry()
		if bn, bk := b.approx.Geometry(); an != bn || ak != bk {
			return nil
		}
		a.approx.Intersect(b.approx)
	}
	a.count += b.count
	a.lineage = a.lineage || b.lineage
	return a
}

// intersect keeps the ids of a that are also in b, in place. Both are
// strictly ascending; walking the shorter and galloping through the longer,
// a set shrunk to a few ids meets a large group in O(few · log).
func intersect(a, b []uint32) []uint32 {
	short, long := a, b
	if len(b) < len(a) {
		short, long = b, a
	}
	k, pos := 0, 0
	for _, id := range short {
		if pos = gallop(long, pos, id); pos == len(long) {
			break
		}
		if long[pos] == id {
			a[k] = id // k ≤ id's position in a: overwrites only ids already read
			k++
			pos++
		}
	}
	return a[:k]
}

// gallop returns the first index i ≥ from with ids[i] ≥ id, given that every
// entry before from is less than id. It doubles its step from `from` until it
// overshoots, then binary-searches the last step: a run of lookups with
// ascending ids costs O(log gap) each and O(|ids|) in total.
func gallop(ids []uint32, from int, id uint32) int {
	lo, step := from, 1
	for lo+step <= len(ids) && ids[lo+step-1] < id {
		lo += step
		step <<= 1
	}
	// ids[lo-1] < id (or lo == from) and the answer is at most lo+step-1.
	hi := min(lo+step-1, len(ids))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// validate resolves uncertain candidate sets (steps 9–10): with the map
// broadcast, every work unit emits the exact intersection of its group with
// a dependent's candidates, and intersecting these across the dependent's
// dominant groups leaves the exact referenced captures.
func validate(units *dataflow.Dataset[workUnit], uncertain map[uint32]*candSet, refOK []bool, emit func(dep uint32, refs []uint32, support int)) {
	if len(uncertain) == 0 {
		return
	}
	vsets := dataflow.FlatMap(units, "ext/validation-sets",
		func(u workUnit, emit func(dataflow.Pair[uint32, []uint32])) {
			for _, dep := range u.Deps {
				cs, ok := uncertain[dep]
				if !ok {
					continue
				}
				refs := make([]uint32, 0, len(u.All))
				for _, r := range u.All {
					if r == dep || !refOK[r] {
						continue
					}
					if _, in := slices.BinarySearch(cs.refs, r); in || cs.refs == nil && cs.approx.Test(uint64(r)) {
						refs = append(refs, r)
					}
				}
				emit(dataflow.Pair[uint32, []uint32]{Key: dep, Val: refs})
			}
		})
	final := dataflow.ReduceByKey(vsets, "ext/validate", func(a, b []uint32) []uint32 {
		if a == nil || b == nil {
			return nil // bytes that decoded to no set
		}
		return intersect(a, b)
	})
	for _, p := range dataflow.Collect(final) {
		cs := uncertain[p.Key]
		if err := checkIDs(len(refOK), p.Val); cs == nil || err != nil {
			units.Context().Fail("ext/validate", fmt.Errorf("%w: validation set of capture id %d",
				dataflow.ErrCorruptRecord, p.Key))
			return
		}
		emit(p.Key, p.Val, cs.count)
	}
}
