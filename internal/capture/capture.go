// Package capture implements RDFind's Capture Groups Creator (§6, Alg. 2): it
// turns the pruned triple stream into capture groups, the compact form from
// which all broad CINDs can be extracted (Lemma 3, Theorem 1).
//
// A capture evidence states that a value belongs to a capture's
// interpretation. Per triple and projection attribute, Algorithm 2 emits
// either one binary-condition evidence (when the binary condition is
// frequent and embeds no association rule — the binary evidence subsumes the
// unary ones) or the evidences of the frequent unary conditions. Evidences
// with equal values are then grouped, deduplicated, and the value dropped:
// the remaining capture set is the capture group.
//
// The frequent conditions admit few captures, so these are interned once, in
// capture order, and an evidence is value<<32 | capture id (DESIGN.md,
// "Dense-id scan path"): sorting evidences deduplicates them, groups them by
// value and orders each group's members.
package capture

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/fcdetect"
	"repro/internal/rdf"
)

// Group is a capture group: the ids of its captures, strictly ascending. An
// id indexes Groups.Captures, which is in capture order (cind.CompareCaptures),
// so id order is capture order. Binary members subsume their unary
// relaxations (§6.1); Groups.Close expands that closure. A partition's groups
// share one backing array: do not append to or write into one.
type Group []uint32

// Groups is the CGCreator's output: the groups, one record each, and the
// capture table that gives their ids meaning, built alike on every process.
type Groups struct {
	*dataflow.Dataset[Group]
	// Captures holds the capture with id i at index i, in capture order.
	Captures []cind.Capture
	// relax holds, per id, the ids of a binary capture's two unary
	// relaxations; a unary capture relaxes to itself.
	relax [][2]uint32
}

// NewGroups pairs groups with the capture table their ids index. The table
// must be in capture order and hold both unary relaxations (same projection)
// of each of its binary captures, as BuildGroups' table does; a relaxation it
// lacks is reported and left out of the closure.
func NewGroups(groups *dataflow.Dataset[Group], captures []cind.Capture) (*Groups, error) {
	gs := &Groups{Dataset: groups, Captures: captures, relax: make([][2]uint32, len(captures))}
	var err error
	for id, c := range captures {
		gs.relax[id] = [2]uint32{uint32(id), uint32(id)}
		for i, u := range c.Cond.UnaryParts() { // a unary capture relaxes to itself
			r, ok := slices.BinarySearchFunc(captures, cind.Capture{Proj: c.Proj, Cond: u}, cind.CompareCaptures)
			if !ok {
				err, r = fmt.Errorf("capture: the table lacks the relaxation %+v of %+v", u, c), id
			}
			gs.relax[id][i] = uint32(r)
		}
	}
	return gs, err
}

// Close returns g's implication closure: g plus the unary relaxations of its
// binary members, strictly ascending, appended to *arena — or g itself when
// it has no binary member. g must be strictly ascending.
func (gs *Groups) Close(g Group, arena *[]uint32) Group {
	start := len(*arena)
	for _, id := range g {
		if r := gs.relax[id]; r[0] != id {
			if len(*arena) == start {
				*arena = append(*arena, g...)
			}
			*arena = append(*arena, r[0], r[1])
		}
	}
	if len(*arena) == start {
		return g
	}
	slices.Sort((*arena)[start:])
	*arena = (*arena)[:start+len(slices.Compact((*arena)[start:]))]
	return (*arena)[start:len(*arena):len(*arena)]
}

// evidence is value<<32 | capture id.
type evidence uint64

// table interns the captures the frequent conditions admit. A capture's id
// is its index in captures, which is in capture order: per projection α with
// other attributes β < γ, the captures on β ∧ γ, then on β, then on γ, each
// run in condition-value order. binary holds the id of every frequent binary
// condition that embeds no association rule; unaryBase[α][β] is the id of
// the first capture (α, β = ·), to which a condition's rank on β adds.
type table struct {
	fc         *fcdetect.Output
	noPredProj bool
	captures   []cind.Capture
	binary     map[fcdetect.BinaryKey]uint32
	unaryBase  [3][3]uint32
}

func newTable(fc *fcdetect.Output, noPredProj bool) (*table, error) {
	t := &table{fc: fc, noPredProj: noPredProj, binary: map[fcdetect.BinaryKey]uint32{}}
	embedsAR := make(map[fcdetect.BinaryKey]struct{}, len(fc.ARs))
	for _, r := range fc.ARs {
		embedsAR[fcdetect.PackBinary(cind.Binary(r.If.A1, r.If.V1, r.Then.A1, r.Then.V1))] = struct{}{}
	}
	for _, proj := range rdf.Attrs {
		if noPredProj && proj == rdf.Predicate {
			continue
		}
		beta, gamma := proj.Others()
		for _, p := range fc.Binary {
			key := fcdetect.PackBinary(p.Key)
			if _, ar := embedsAR[key]; p.Key.A1 != beta || p.Key.A2 != gamma || ar {
				continue
			}
			t.binary[key] = uint32(len(t.captures))
			t.captures = append(t.captures, cind.Capture{Proj: proj, Cond: p.Key})
		}
		for _, a := range [2]rdf.Attr{beta, gamma} {
			t.unaryBase[proj][a] = uint32(len(t.captures))
			for _, p := range fc.Unary {
				if p.Key.A1 == a {
					t.captures = append(t.captures, cind.Capture{Proj: proj, Cond: p.Key})
				}
			}
		}
	}
	if len(t.captures) >= math.MaxUint32 {
		return nil, fmt.Errorf("capture: %d captures exceed the 32-bit capture id space", len(t.captures))
	}
	return t, nil
}

// appendEvidences is the per-triple body of Algorithm 2. With noPredProj set
// (§8.3: "predicates only in conditions"), the predicate element never
// serves as a projection attribute.
func (t *table) appendEvidences(dst []evidence, tr rdf.Triple) []evidence {
	var rank [3]uint32
	var frequent [3]bool
	for _, a := range rdf.Attrs {
		r, ok := t.fc.UnaryRank(a, tr.Get(a))
		rank[a], frequent[a] = uint32(r), ok
	}
	for _, alpha := range rdf.Attrs {
		if t.noPredProj && alpha == rdf.Predicate {
			continue
		}
		beta, gamma := alpha.Others()
		value := evidence(tr.Get(alpha)) << 32
		if frequent[beta] && frequent[gamma] {
			if id, ok := t.binary[fcdetect.PackBinary(cind.Binary(beta, tr.Get(beta), gamma, tr.Get(gamma)))]; ok {
				// The binary evidence subsumes both unary ones (line 11).
				dst = append(dst, value|evidence(id))
				continue
			}
		}
		if frequent[beta] {
			dst = append(dst, value|evidence(t.unaryBase[alpha][beta]+rank[beta]))
		}
		if frequent[gamma] {
			dst = append(dst, value|evidence(t.unaryBase[alpha][gamma]+rank[gamma]))
		}
	}
	return dst
}

// BuildGroups runs Algorithm 2 over the triples and groups the evidences by
// value; all workers share the FCDetector's unary index and the capture table.
func BuildGroups(triples *dataflow.Dataset[rdf.Triple], fc *fcdetect.Output, opts fcdetect.Options) *Groups {
	ctx := triples.Context()
	t, err := newTable(fc, opts.PredicatesOnlyInConditions)
	if err != nil {
		ctx.Fail("cgc/captures", err)
	}
	// On a failed engine (worker fault, cancellation) schedule nothing: the
	// caller observes the failure via Context.Err.
	if ctx.Err() != nil {
		return &Groups{Dataset: dataflow.Parallelize(ctx, "cgc/aborted", []Group(nil))}
	}

	// The same value/capture pair arises once per matching triple: sort and
	// deduplicate within the partition before anything moves.
	local := dataflow.MapPartitions(triples, "cgc/evidences",
		func(_ int, ts []rdf.Triple, emit func(evidence)) {
			evs := make([]evidence, 0, 3*len(ts))
			for _, tr := range ts {
				evs = t.appendEvidences(evs, tr)
			}
			slices.Sort(evs)
			for _, e := range slices.Compact(evs) {
				emit(e)
			}
		})
	byValue := dataflow.PartitionBy(local, "cgc/exchange", func(e evidence) int { return int(e >> 32) })
	groups := dataflow.MapPartitions(byValue, "cgc/cut-groups",
		func(_ int, evs []evidence, emit func(Group)) {
			if err := cutGroups(evs, len(t.captures), emit); err != nil {
				ctx.Fail("cgc/cut-groups", err)
			}
		})
	gs, err := NewGroups(groups, t.captures)
	if err != nil {
		ctx.Fail("cgc/captures", err)
	}
	ctx.Stats().Metrics().Counter("capture.groups").Add(int64(gs.Len()))
	return gs
}

// cutGroups turns the evidences that met in one partition into its groups:
// sorted and deduplicated once more they are the groups laid end to end, so
// their capture ids go into one arena (an id at or beyond the table's n
// captures can only come off the wire), cut where the value changes. Groups
// are emitted from the largest value down: terms are numbered by first
// occurrence, so the large groups of frequent values come last and a
// dependent's candidate set starts small in ext/candidates-exact.
func cutGroups(in []evidence, n int, emit func(Group)) error {
	evs := slices.Clone(in)
	slices.Sort(evs)
	evs = slices.Compact(evs)
	arena := make(Group, len(evs))
	for i, e := range evs {
		if int(uint32(e)) >= n {
			return fmt.Errorf("%w: capture evidence %#x", dataflow.ErrCorruptRecord, uint64(e))
		}
		arena[i] = uint32(e)
	}
	for end, i := len(evs), len(evs)-1; i >= 0; i-- {
		if i == 0 || evs[i-1]>>32 != evs[i]>>32 {
			emit(arena[i:end:end])
			end = i
		}
	}
	return nil
}

// Evidences cross processes in the cgc/exchange of a distributed run. Bytes
// that are no evidence decode to the all-ones one, whose capture id no table
// issues (newTable): cutGroups fails the run on it as on any unknown id.
func init() { dataflow.RegisterUint64Record[evidence]() }
