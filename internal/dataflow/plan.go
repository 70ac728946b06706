package dataflow

import "strings"

// This file is the engine's lazy logical-plan layer. Narrow operators — Map,
// FlatMap, Filter, and the output side of MapPartitions — do not execute when
// they are called: they append to a pending chain on the Dataset, and the
// whole chain runs as ONE fused stage when something needs the data. A wide
// operator (ReduceByKey, GroupByKey, CoGroup, PartitionBy, Union),
// Collect, GlobalReduce, Len, Partitions, or String forces materialization;
// the fused stage streams every source record through all chained functions
// in a single pass — one goroutine fan-out, one output buffer per worker,
// zero intermediate partitions — which is how Flink executes RDFind's long
// narrow chains as chained operators (App. C of the paper).
//
// Chains are always rooted at materialized partitions: extending a lazy
// dataset composes onto its pending chain, extending a materialized dataset
// starts a fresh chain over its partitions. Forcing is memoized — the first
// force materializes the partitions and clears the plan, every later force is
// a no-op — but chains themselves are not shared state: two consumers that
// each extend the same unforced dataset replay its pending prefix once per
// consumer (like Spark's lineage recomputation). Call Materialize on a
// dataset with several downstream consumers to compute the prefix once.

// chain is a pending narrow-operator chain. T is the type the chain emits;
// the materialized root partitions it reads are captured inside feed.
// srcLens holds the root's per-worker partition lengths (the fused stage's
// input accounting), ops the chained operator names in application order, and
// feed streams worker w's root partition through every chained function,
// incrementing tally[i] for each record entering the i-th operator.
type chain[T any] struct {
	srcLens []int64
	ops     []string
	feed    func(w int, tally []int64, emit func(T))
}

// chainOf returns d's pending chain, or a fresh zero-op chain rooted at its
// materialized partitions.
func chainOf[T any](d *Dataset[T]) *chain[T] {
	if d.plan != nil {
		return d.plan
	}
	parts := d.parts
	return &chain[T]{
		srcLens: partLens(parts),
		feed: func(w int, _ []int64, emit func(T)) {
			for _, t := range parts[w] {
				emit(t)
			}
		},
	}
}

// extendOps copies the op-name slice and appends name. The copy matters:
// sibling chains extended off the same parent must not alias one slice.
func extendOps(ops []string, name string) []string {
	out := make([]string, 0, len(ops)+1)
	out = append(out, ops...)
	return append(out, name)
}

// chainMap appends a Map to the chain.
func chainMap[T, U any](p *chain[T], name string, f func(T) U) *chain[U] {
	idx := len(p.ops)
	prev := p.feed
	return &chain[U]{
		srcLens: p.srcLens,
		ops:     extendOps(p.ops, name),
		feed: func(w int, tally []int64, emit func(U)) {
			prev(w, tally, func(t T) {
				tally[idx]++
				emit(f(t))
			})
		},
	}
}

// chainFlatMap appends a FlatMap to the chain.
func chainFlatMap[T, U any](p *chain[T], name string, f func(T, func(U))) *chain[U] {
	idx := len(p.ops)
	prev := p.feed
	return &chain[U]{
		srcLens: p.srcLens,
		ops:     extendOps(p.ops, name),
		feed: func(w int, tally []int64, emit func(U)) {
			prev(w, tally, func(t T) {
				tally[idx]++
				f(t, emit)
			})
		},
	}
}

// chainFilter appends a Filter to the chain.
func chainFilter[T any](p *chain[T], name string, pred func(T) bool) *chain[T] {
	idx := len(p.ops)
	prev := p.feed
	return &chain[T]{
		srcLens: p.srcLens,
		ops:     extendOps(p.ops, name),
		feed: func(w int, tally []int64, emit func(T)) {
			prev(w, tally, func(t T) {
				tally[idx]++
				if pred(t) {
					emit(t)
				}
			})
		},
	}
}

// chainMapPartitions starts a new chain whose first op is a MapPartitions
// over already-materialized partitions. MapPartitions hands f a whole
// partition slice, so it cannot consume a lazy upstream (the caller forces
// first) — but its output streams, so downstream narrow ops fuse onto it.
func chainMapPartitions[T, U any](parts [][]T, name string, f func(worker int, items []T, emit func(U))) *chain[U] {
	return &chain[U]{
		srcLens: partLens(parts),
		ops:     []string{name},
		feed: func(w int, tally []int64, emit func(U)) {
			tally[0] += int64(len(parts[w]))
			f(w, parts[w], emit)
		},
	}
}

// fusedName names the fused stage of a chain. A single-op chain keeps
// exactly its operator's name, so spans and stage errors are unchanged
// wherever nothing actually fused. Longer chains factor the
// ops' longest common '/'-terminated prefix and join the remaining segments
// with '+': ["ext/prune-groups" "ext/drop-empty"] → "ext/prune-groups+drop-empty".
func fusedName(ops []string) string {
	if len(ops) == 0 {
		return ""
	}
	if len(ops) == 1 {
		return ops[0]
	}
	prefix := commonSlashPrefix(ops)
	var b strings.Builder
	b.WriteString(prefix)
	for i, op := range ops {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(op[len(prefix):])
	}
	return b.String()
}

// commonSlashPrefix returns the longest '/'-terminated prefix shared by all
// names ("" when the first segments already differ).
func commonSlashPrefix(ops []string) string {
	prefix := ops[0]
	i := strings.LastIndexByte(prefix, '/')
	if i < 0 {
		return ""
	}
	prefix = prefix[:i+1]
	for _, op := range ops[1:] {
		for !strings.HasPrefix(op, prefix) {
			j := strings.LastIndexByte(strings.TrimSuffix(prefix, "/"), '/')
			if j < 0 {
				return ""
			}
			prefix = prefix[:j+1]
		}
	}
	return prefix
}

// force materializes any pending chain as one fused stage and memoizes the
// result: d.parts receives the chain's output and the plan is cleared, so
// repeated forces (Len, Partitions, String, several wide consumers) reuse the
// materialized partitions without re-running anything.
func (d *Dataset[T]) force() {
	p := d.plan
	if p == nil {
		return
	}
	d.plan = nil
	c := d.ctx
	if c.failed() {
		d.parts = make([][]T, c.workers)
		return
	}
	name := fusedName(p.ops)
	sp := c.begin(name)
	out := make([][]T, c.workers)
	tallies := make([][]int64, c.workers)
	if !c.runStage(name, func(w int) error {
		tally := make([]int64, len(p.ops))
		tallies[w] = tally
		res := make([]T, 0, p.srcLens[w])
		p.feed(w, tally, func(t T) { res = append(res, t) })
		out[w] = res
		return nil
	}) {
		d.parts = make([][]T, c.workers)
		return
	}
	if len(p.ops) > 1 {
		sp.fusedOps = fusedOpCounts(p.ops, tallies)
	}
	sp.materializedBytes = estimateMaterializedBytes(out)
	c.finish(sp, p.srcLens, totalLen(out))
	d.parts = out
}

// Materialize forces any pending narrow-operator chain (as one fused stage)
// and returns the dataset. Use it to pin a dataset that several downstream
// chains consume: a pending chain would be replayed once per consumer,
// whereas a materialized dataset is computed exactly once.
func (d *Dataset[T]) Materialize() *Dataset[T] {
	d.force()
	return d
}
