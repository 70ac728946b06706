package core

import (
	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/extract"
)

// minimalFirst implements the alternative strategy discussed in §8.6:
// instead of extracting all broad CINDs and minimizing afterwards, it makes
// multiple passes over the capture groups, extracting one condition-arity
// class per pass and using the previously found CINDs to discard implied
// candidates of the next class.
//
// Pass order follows the implication structure: Ψ1:2 CINDs (unary dependent,
// binary referenced) are always minimal; they kill Ψ1:1 (referenced
// implication) and Ψ2:2 (dependent implication) CINDs; and the full Ψ1:1 and
// Ψ2:2 sets kill Ψ2:1 CINDs. The paper found this strategy up to 3× slower
// than even RDFind-DE — broader CINDs are usually minimal anyway, so the
// extra passes over the groups cost more than they save — and the experiment
// suite reproduces that comparison. The result set is identical to
// Minimize(BroadCINDs(...)).
func minimalFirst(groups *capture.Groups, ecfg extract.Config) ([]cind.CIND, extract.Outcome, error) {
	var total extract.Outcome
	pass := func(dep, ref extract.Arity) ([]cind.CIND, error) {
		cfg := ecfg
		cfg.DepArity, cfg.RefArity = dep, ref
		res, outcome, err := extract.BroadCINDsOutcome(groups, cfg)
		total.EstimatedLoad += outcome.EstimatedLoad
		total.Degraded = total.Degraded || outcome.Degraded
		return res, err
	}

	// Pass 1: Ψ1:2 — all minimal (a unary dependent condition cannot be
	// relaxed; a binary referenced condition cannot be tightened).
	c12, err := pass(extract.UnaryOnly, extract.BinaryOnly)
	if err != nil {
		return nil, total, err
	}

	// The kill indexes derived from Ψ1:2.
	byDep12 := make(map[cind.Inclusion]struct{}, len(c12))  // for Ψ1:1 kills
	incSet12 := make(map[cind.Inclusion]struct{}, len(c12)) // for Ψ2:2 kills
	for _, c := range c12 {
		incSet12[c.Inclusion] = struct{}{}
		for _, u := range c.Ref.Cond.UnaryParts() {
			if !u.Uses(c.Ref.Proj) {
				byDep12[cind.Inclusion{Dep: c.Dep, Ref: cind.Capture{Proj: c.Ref.Proj, Cond: u}}] = struct{}{}
			}
		}
	}

	// Pass 2a: Ψ1:1, killed by referenced implication from Ψ1:2.
	c11, err := pass(extract.UnaryOnly, extract.UnaryOnly)
	if err != nil {
		return nil, total, err
	}
	// Pass 2b: Ψ2:2, killed by dependent implication from Ψ1:2.
	c22, err := pass(extract.BinaryOnly, extract.BinaryOnly)
	if err != nil {
		return nil, total, err
	}

	out := c12
	c11Set := make(map[cind.Inclusion]struct{}, len(c11))
	for _, c := range c11 {
		c11Set[c.Inclusion] = struct{}{}
		if _, killed := byDep12[c.Inclusion]; !killed {
			out = append(out, c)
		}
	}
	tight22 := make(map[cind.Inclusion]struct{}) // Ψ2:2-based kills for Ψ2:1
	for _, c := range c22 {
		for _, u := range c.Ref.Cond.UnaryParts() {
			if !u.Uses(c.Ref.Proj) {
				tight22[cind.Inclusion{Dep: c.Dep, Ref: cind.Capture{Proj: c.Ref.Proj, Cond: u}}] = struct{}{}
			}
		}
		if c.Trivial() {
			continue
		}
		if !depRelaxedIn(c.Inclusion, incSet12) {
			out = append(out, c)
		}
	}

	// Pass 3: Ψ2:1, killed by the full Ψ1:1 and Ψ2:2 sets (kills must use
	// the unminimized sets: implication composes through CINDs that are
	// themselves non-minimal but valid).
	c21, err := pass(extract.BinaryOnly, extract.UnaryOnly)
	if err != nil {
		return nil, total, err
	}
	for _, c := range c21 {
		if c.Trivial() {
			continue
		}
		if _, killed := tight22[c.Inclusion]; killed {
			continue
		}
		if depRelaxedIn(c.Inclusion, c11Set) {
			continue
		}
		out = append(out, c)
	}
	return out, total, nil
}

// depRelaxedIn reports whether relaxing inc's binary dependent condition to
// one of its unary parts yields a statement in the given set or a reflexive
// statement.
func depRelaxedIn(inc cind.Inclusion, set map[cind.Inclusion]struct{}) bool {
	for _, u := range inc.Dep.Cond.UnaryParts() {
		if u.Uses(inc.Dep.Proj) {
			continue
		}
		relaxed := cind.Capture{Proj: inc.Dep.Proj, Cond: u}
		if relaxed == inc.Ref {
			return true
		}
		if _, ok := set[cind.Inclusion{Dep: relaxed, Ref: inc.Ref}]; ok {
			return true
		}
	}
	return false
}
