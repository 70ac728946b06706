package fcdetect

import (
	"repro/internal/bloom"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
)

// This file keeps the detector this package had before the dense-id scan
// path as the reference the differential tests compare Detect against: it
// counts conditions as struct-keyed records through ReduceByKey, probes
// Bloom filters of the frequent unary conditions as the paper does, and
// joins unary and binary counters through CoGroup to find the rules.

type refOutput struct {
	Unary, Binary map[cind.Condition]int
	ARs           []cind.AR
}

type condCount = dataflow.Pair[cind.Condition, int]

func addInts(a, b int) int { return a + b }

func referenceDetect(triples *dataflow.Dataset[rdf.Triple], h int) *refOutput {
	atLeastH := func(p condCount) bool { return p.Val >= h }

	// Frequent unary conditions: per-triple counters, early-aggregated and
	// globally reduced, then thresholded (steps 1–2).
	unaryCounters := dataflow.FlatMap(triples, "ref/unary-counters",
		func(t rdf.Triple, emit func(condCount)) {
			emit(condCount{Key: cind.Unary(rdf.Subject, t.S), Val: 1})
			emit(condCount{Key: cind.Unary(rdf.Predicate, t.P), Val: 1})
			emit(condCount{Key: cind.Unary(rdf.Object, t.O), Val: 1})
		})
	unary := dataflow.Filter(dataflow.ReduceByKey(unaryCounters, "ref/unary-sum", addInts), "ref/unary-threshold", atLeastH)

	// Compact into a Bloom filter (steps 3–4).
	bu := bloom.New(max(unary.Len(), 1024), 0.001)
	for _, p := range dataflow.Collect(unary) {
		bu.Add(p.Key.Key())
	}

	// Frequent binary conditions: Algorithm 1 — candidates are generated on
	// demand per triple by probing the unary filter (steps 5–7).
	probe := func(a rdf.Attr, v rdf.Value) bool { return bu.Test(cind.Unary(a, v).Key()) }
	binaryCounters := dataflow.FlatMap(triples, "ref/binary-counters",
		func(t rdf.Triple, emit func(condCount)) {
			sF, pF, oF := probe(rdf.Subject, t.S), probe(rdf.Predicate, t.P), probe(rdf.Object, t.O)
			if sF && pF {
				emit(condCount{Key: cind.Binary(rdf.Subject, t.S, rdf.Predicate, t.P), Val: 1})
			}
			if sF && oF {
				emit(condCount{Key: cind.Binary(rdf.Subject, t.S, rdf.Object, t.O), Val: 1})
			}
			if pF && oF {
				emit(condCount{Key: cind.Binary(rdf.Predicate, t.P, rdf.Object, t.O), Val: 1})
			}
		})
	binary := dataflow.Filter(dataflow.ReduceByKey(binaryCounters, "ref/binary-sum", addInts), "ref/binary-threshold", atLeastH)

	// Association rules: join frequent unary and binary counters on the
	// embedded unary condition; equal counts mean confidence 1 (step 11).
	type bin struct {
		other cind.Condition
		count int
	}
	exploded := dataflow.FlatMap(binary, "ref/ar-explode",
		func(p condCount, emit func(dataflow.Pair[cind.Condition, bin])) {
			parts := p.Key.UnaryParts()
			emit(dataflow.Pair[cind.Condition, bin]{Key: parts[0], Val: bin{other: parts[1], count: p.Val}})
			emit(dataflow.Pair[cind.Condition, bin]{Key: parts[1], Val: bin{other: parts[0], count: p.Val}})
		})
	rules := dataflow.FlatMap(dataflow.CoGroup(unary, exploded, "ref/ar-join"), "ref/ar-extract",
		func(g dataflow.CoGrouped[cind.Condition, int, bin], emit func(cind.AR)) {
			if len(g.Left) != 1 {
				return // unary condition not frequent (or absent)
			}
			for _, b := range g.Right {
				if b.count == g.Left[0] {
					emit(cind.AR{If: g.Key, Then: b.other, Support: b.count})
				}
			}
		})

	out := &refOutput{Unary: map[cind.Condition]int{}, Binary: map[cind.Condition]int{}, ARs: dataflow.Collect(rules)}
	for _, p := range dataflow.Collect(unary) {
		out.Unary[p.Key] = p.Val
	}
	for _, p := range dataflow.Collect(binary) {
		out.Binary[p.Key] = p.Val
	}
	return out
}
