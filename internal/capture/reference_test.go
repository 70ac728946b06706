package capture

import (
	"repro/internal/bloom"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/fcdetect"
	"repro/internal/rdf"
)

// This file keeps the Capture Groups Creator this package had before the
// dense-id scan path as the reference the differential tests compare
// BuildGroups and Groups.Close against: evidences are structs deduplicated by
// one ReduceByKey and grouped by one GroupByKey, frequent conditions are
// probed in Bloom filters as in the paper, groups are capture structs, and
// the closure goes through a map.

type refEvidence struct {
	Value   rdf.Value
	Capture cind.Capture
}

func conditionBloom(f fcdetect.Frequent) *bloom.Filter {
	b := bloom.New(max(len(f), 1024), 0.001)
	for _, p := range f {
		b.Add(p.Key.Key())
	}
	return b
}

func referenceBuildGroups(triples *dataflow.Dataset[rdf.Triple], fc *fcdetect.Output, opts fcdetect.Options) *dataflow.Dataset[[]cind.Capture] {
	bu, bb := conditionBloom(fc.Unary), conditionBloom(fc.Binary)
	ars := make(map[[2]cind.Condition]struct{}, len(fc.ARs))
	for _, r := range fc.ARs {
		ars[[2]cind.Condition{r.If, r.Then}] = struct{}{}
	}
	evidences := dataflow.FlatMap(triples, "ref/evidences",
		func(t rdf.Triple, emit func(dataflow.Pair[refEvidence, struct{}])) {
			referenceEvidences(t, bu, bb, ars, opts.PredicatesOnlyInConditions,
				func(e refEvidence) { emit(dataflow.Pair[refEvidence, struct{}]{Key: e}) })
		})
	distinct := dataflow.ReduceByKey(evidences, "ref/dedup", func(a, _ struct{}) struct{} { return a })
	byValue := dataflow.Map(distinct, "ref/key-by-value",
		func(p dataflow.Pair[refEvidence, struct{}]) dataflow.Pair[rdf.Value, cind.Capture] {
			return dataflow.Pair[rdf.Value, cind.Capture]{Key: p.Key.Value, Val: p.Key.Capture}
		})
	return dataflow.Map(dataflow.GroupByKey(byValue, "ref/group"), "ref/strip-value",
		func(p dataflow.Pair[rdf.Value, []cind.Capture]) []cind.Capture { return p.Val })
}

// referenceEvidences is the per-triple body of Algorithm 2.
func referenceEvidences(
	t rdf.Triple,
	bu, bb *bloom.Filter,
	ars map[[2]cind.Condition]struct{},
	noPredProj bool,
	emit func(refEvidence),
) {
	for _, alpha := range rdf.Attrs {
		if noPredProj && alpha == rdf.Predicate {
			continue
		}
		beta, gamma := alpha.Others()
		vAlpha, vBeta, vGamma := t.Get(alpha), t.Get(beta), t.Get(gamma)

		condBeta := cind.Unary(beta, vBeta)
		condGamma := cind.Unary(gamma, vGamma)
		betaFrequent := bu.Test(condBeta.Key())
		gammaFrequent := bu.Test(condGamma.Key())
		switch {
		case betaFrequent && gammaFrequent:
			binary := cind.Binary(beta, vBeta, gamma, vGamma)
			_, arBG := ars[[2]cind.Condition{condBeta, condGamma}]
			_, arGB := ars[[2]cind.Condition{condGamma, condBeta}]
			if bb.Test(binary.Key()) && !arBG && !arGB {
				// The binary evidence subsumes both unary ones (line 11).
				emit(refEvidence{Value: vAlpha, Capture: cind.Capture{Proj: alpha, Cond: binary}})
			} else {
				emit(refEvidence{Value: vAlpha, Capture: cind.Capture{Proj: alpha, Cond: condBeta}})
				emit(refEvidence{Value: vAlpha, Capture: cind.Capture{Proj: alpha, Cond: condGamma}})
			}
		case betaFrequent:
			emit(refEvidence{Value: vAlpha, Capture: cind.Capture{Proj: alpha, Cond: condBeta}})
		case gammaFrequent:
			emit(refEvidence{Value: vAlpha, Capture: cind.Capture{Proj: alpha, Cond: condGamma}})
		}
	}
}

// referenceClose is the closure by map: order-free on both sides.
func referenceClose(g []cind.Capture) []cind.Capture {
	seen := make(map[cind.Capture]struct{}, len(g)*2)
	out := make([]cind.Capture, 0, len(g)*2)
	add := func(c cind.Capture) {
		if _, ok := seen[c]; !ok {
			seen[c] = struct{}{}
			out = append(out, c)
		}
	}
	for _, c := range g {
		add(c)
		if c.Cond.IsBinary() {
			for _, u := range c.Cond.UnaryParts() {
				add(cind.Capture{Proj: c.Proj, Cond: u})
			}
		}
	}
	return out
}
