package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// Tests for the lazy plan layer (plan.go): partition balance, forcing
// semantics, fused-stage naming and accounting, fault retry on fused chains,
// and equivalence with an eager whole-slice interpreter kept here as the
// reference.

func TestParallelizeBalancedPartitions(t *testing.T) {
	for _, tc := range []struct{ n, w int }{
		{5, 4}, {0, 3}, {1, 8}, {7, 7}, {100, 7}, {3, 1}, {16, 4},
	} {
		c := NewContext(tc.w)
		items := ints(tc.n)
		d := Parallelize(c, "in", items)
		parts := d.Partitions()
		if len(parts) != tc.w {
			t.Fatalf("n=%d w=%d: %d partitions", tc.n, tc.w, len(parts))
		}
		min, max := tc.n, 0
		for _, p := range parts {
			if len(p) < min {
				min = len(p)
			}
			if len(p) > max {
				max = len(p)
			}
		}
		if tc.n > 0 && max-min > 1 {
			t.Errorf("n=%d w=%d: partition sizes skewed, min=%d max=%d", tc.n, tc.w, min, max)
		}
		// Chunking is contiguous, so Collect preserves input order.
		if got := Collect(d); !reflect.DeepEqual(got, items) && !(len(got) == 0 && len(items) == 0) {
			t.Errorf("n=%d w=%d: Collect reordered: %v", tc.n, tc.w, got)
		}
	}
	// The motivating skew: 5 items on 4 workers must not leave a worker idle.
	parts := Parallelize(NewContext(4), "in", ints(5)).Partitions()
	var sizes []int
	for _, p := range parts {
		sizes = append(sizes, len(p))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if !reflect.DeepEqual(sizes, []int{2, 1, 1, 1}) {
		t.Errorf("5 items on 4 workers split %v, want 2/1/1/1", sizes)
	}
}

func TestSinksForceExactlyOnce(t *testing.T) {
	var calls atomic.Int64
	c := NewContext(3)
	d := Map(Parallelize(c, "in", ints(10)), "count-calls", func(x int) int {
		calls.Add(1)
		return x
	})
	for name, sink := range map[string]func(){
		"Len":        func() { d.Len() },
		"Partitions": func() { d.Partitions() },
		"String":     func() { _ = d.String() },
	} {
		calls.Store(0)
		d.plan = nil
		d.parts = nil
		d = Map(Parallelize(c, "in", ints(10)), "count-calls", func(x int) int {
			calls.Add(1)
			return x
		})
		sink()
		if got := calls.Load(); got != 10 {
			t.Errorf("%s: map ran %d times, want 10", name, got)
		}
		// Repeated sinks reuse the materialized partitions.
		sink()
		sink()
		if got := calls.Load(); got != 10 {
			t.Errorf("repeated %s re-ran the chain: %d calls", name, got)
		}
	}
}

func TestMaterializePinsSharedParent(t *testing.T) {
	run := func(materialize bool) int64 {
		var calls atomic.Int64
		c := NewContext(2)
		parent := Map(Parallelize(c, "in", ints(8)), "shared", func(x int) int {
			calls.Add(1)
			return x
		})
		if materialize {
			parent.Materialize()
		}
		// Two consumers extend the same parent with sibling chains.
		Filter(parent, "a", func(x int) bool { return x%2 == 0 }).Len()
		Filter(parent, "b", func(x int) bool { return x%2 == 1 }).Len()
		return calls.Load()
	}
	if got := run(false); got != 16 {
		t.Errorf("unforced shared parent replayed %d times, want 16 (once per consumer)", got)
	}
	if got := run(true); got != 8 {
		t.Errorf("materialized shared parent ran %d times, want 8 (exactly once)", got)
	}
}

func TestFusedNameComposition(t *testing.T) {
	for _, tc := range []struct {
		ops  []string
		want string
	}{
		{[]string{"solo"}, "solo"},
		{[]string{"a", "b"}, "a+b"},
		{[]string{"ext/prune-groups", "ext/drop-empty"}, "ext/prune-groups+drop-empty"},
		{[]string{"x/y/a", "x/y/b", "x/y/c"}, "x/y/a+b+c"},
		{[]string{"x/y/a", "x/z/b"}, "x/y/a+z/b"},
		{[]string{"x/a", "plain"}, "x/a+plain"},
	} {
		if got := fusedName(tc.ops); got != tc.want {
			t.Errorf("fusedName(%v) = %q, want %q", tc.ops, got, tc.want)
		}
	}
}

func TestFusedChainRunsAsOneStage(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(10))
	doubled := Map(d, "double", func(x int) int { return 2 * x })
	small := Filter(doubled, "small", func(x int) bool { return x < 10 })
	twice := FlatMap(small, "twice", func(x int, emit func(int)) { emit(x); emit(x) })
	got := Collect(twice)
	sort.Ints(got)
	if want := []int{0, 0, 2, 2, 4, 4, 6, 6, 8, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fused chain output %v, want %v", got, want)
	}

	spans := c.Stats().Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (parallelize + fused chain): %+v", len(spans), spans)
	}
	fused := spans[1]
	if fused.Name != "double+small+twice" {
		t.Errorf("fused span named %q, want %q", fused.Name, "double+small+twice")
	}
	if fused.RecordsIn != 10 || fused.RecordsOut != 10 {
		t.Errorf("fused span records in/out = %d/%d, want 10/10", fused.RecordsIn, fused.RecordsOut)
	}
	// Per-fused-op attribution: double sees all 10, small sees double's 10,
	// twice sees the 5 survivors.
	wantOps := []struct {
		name string
		in   int64
	}{{"double", 10}, {"small", 10}, {"twice", 5}}
	if len(fused.FusedOps) != len(wantOps) {
		t.Fatalf("fused ops = %+v", fused.FusedOps)
	}
	for i, w := range wantOps {
		if fused.FusedOps[i].Name != w.name || fused.FusedOps[i].RecordsIn != w.in {
			t.Errorf("fused op %d = %+v, want %+v", i, fused.FusedOps[i], w)
		}
	}
	// The fused chain counts once against TotalWork: 10 parallelize + 10 chain.
	if tw := c.Stats().TotalWork(); tw != 20 {
		t.Errorf("TotalWork = %d, want 20", tw)
	}
	// Spans and work accounting reconcile (the invariant the bench harness pins).
	var spanIn int64
	for _, sp := range spans {
		spanIn += sp.RecordsIn
	}
	if spanIn != c.Stats().TotalWork() {
		t.Errorf("span records-in %d != TotalWork %d", spanIn, c.Stats().TotalWork())
	}
}

func TestSingleOpChainKeepsPlainSpan(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(4))
	Map(d, "only", func(x int) int { return x }).Materialize()
	spans := c.Stats().Spans()
	sp := spans[len(spans)-1]
	if sp.Name != "only" {
		t.Errorf("single-op chain span named %q, want %q", sp.Name, "only")
	}
	if sp.FusedOps != nil {
		t.Errorf("single-op chain carries fused-op attribution: %+v", sp.FusedOps)
	}
}

func TestMapPartitionsIsInputBarrierOutputLazy(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(8))
	up := Map(d, "up", func(x int) int { return x + 1 })
	mp := MapPartitions(up, "mp", func(w int, items []int, emit func(int)) {
		for _, x := range items {
			emit(x)
		}
	})
	// Input barrier: building MapPartitions forced the upstream chain.
	if up.plan != nil {
		t.Errorf("MapPartitions did not force its upstream chain")
	}
	down := Map(mp, "down", func(x int) int { return x * 10 })
	if down.Len() != 8 {
		t.Fatalf("Len = %d, want 8", down.Len())
	}
	var names []string
	for _, sp := range c.Stats().Spans() {
		names = append(names, sp.Name)
	}
	// Downstream fuses onto MapPartitions' lazy output: "mp+down" is one stage.
	want := []string{"in", "up", "mp+down"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("spans = %v, want %v", names, want)
	}
}

func TestFusedChainFaultRetry(t *testing.T) {
	// The fault site is the fused stage's composite name; the retried worker
	// must replay the whole chain from the retained root partitions and the
	// accounting must match a fault-free run.
	plan := NewFaultPlan(Fault{Stage: "double+small", Worker: 1, Kind: FaultTransient})
	c := NewContext(2, WithFaultPlan(plan), WithRetries(2))
	d := Parallelize(c, "in", ints(10))
	got := Collect(Filter(Map(d, "double", func(x int) int { return 2 * x }), "small", func(x int) bool { return x < 10 }))
	if err := c.Err(); err != nil {
		t.Fatalf("fused chain did not recover from transient fault: %v", err)
	}
	sort.Ints(got)
	if want := []int{0, 2, 4, 6, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retried fused chain output %v, want %v", got, want)
	}
	if fired := plan.Fired(); len(fired) != 1 {
		t.Fatalf("fault did not fire at the composite site: %+v", fired)
	}
	if r := c.Stats().Retries()["double+small"]; r != 1 {
		t.Errorf("retries[double+small] = %d, want 1", r)
	}
	// Tallies reset on replay: per-op counts reflect one clean pass.
	for _, sp := range c.Stats().Spans() {
		if sp.Name != "double+small" {
			continue
		}
		for _, op := range sp.FusedOps {
			if op.RecordsIn != 10 {
				t.Errorf("fused op %q counted %d records after retry, want 10", op.Name, op.RecordsIn)
			}
		}
	}
}

func TestFusedChainExhaustedRetriesFailPipeline(t *testing.T) {
	plan := NewFaultPlan(
		Fault{Stage: "a+b", Worker: 0, Occurrence: 1, Kind: FaultTransient},
		Fault{Stage: "a+b", Worker: 0, Occurrence: 2, Kind: FaultTransient},
	)
	c := NewContext(2, WithFaultPlan(plan), WithRetries(1))
	d := Parallelize(c, "in", ints(4))
	out := Map(Map(d, "a", func(x int) int { return x }), "b", func(x int) int { return x })
	if got := Collect(out); len(got) != 0 {
		t.Fatalf("failed pipeline emitted %v", got)
	}
	var se *StageError
	if err := c.Err(); !errors.As(err, &se) || se.Stage != "a+b" {
		t.Fatalf("Err = %v, want StageError for stage a+b", c.Err())
	}
}

func TestFusedStageRecordsMaterializedBytes(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(100))
	Map(d, "widen", func(x int) [4]int64 { return [4]int64{int64(x)} }).Materialize()
	spans := c.Stats().Spans()
	if sp := spans[len(spans)-1]; sp.MaterializedBytes <= 0 {
		t.Errorf("fused stage recorded no materialized bytes: %+v", sp)
	}
}

// narrowOp is one narrow operator of a random chain, in a form both the
// engine and the eager reference can apply. Exactly one of the function
// fields is set.
type narrowOp struct {
	name   string
	mapf   func(int) int
	flat   func(int, func(int))
	pred   func(int) bool
	byPart func(w int, items []int, emit func(int))
}

// apply chains the ops onto d through the engine's lazy operators.
func applyNarrow(d *Dataset[int], ops []narrowOp) *Dataset[int] {
	for _, op := range ops {
		switch {
		case op.mapf != nil:
			d = Map(d, op.name, op.mapf)
		case op.flat != nil:
			d = FlatMap(d, op.name, op.flat)
		case op.pred != nil:
			d = Filter(d, op.name, op.pred)
		default:
			d = MapPartitions(d, op.name, op.byPart)
		}
	}
	return d
}

// eagerNarrow is the reference interpreter: every operator runs to
// completion over whole partition slices before the next one starts — the
// one-stage-per-operator execution the fused chain must be indistinguishable
// from. It returns the final partitions and, per op, the records entering it.
func eagerNarrow(parts [][]int, ops []narrowOp) ([][]int, map[string]int64) {
	tally := map[string]int64{}
	for _, op := range ops {
		next := make([][]int, len(parts))
		for w, in := range parts {
			tally[op.name] += int64(len(in))
			emit := func(x int) { next[w] = append(next[w], x) }
			switch {
			case op.byPart != nil:
				op.byPart(w, in, emit)
			case op.mapf != nil:
				for _, x := range in {
					emit(op.mapf(x))
				}
			case op.flat != nil:
				for _, x := range in {
					op.flat(x, emit)
				}
			default:
				for _, x := range in {
					if op.pred(x) {
						emit(x)
					}
				}
			}
		}
		parts = next
	}
	return parts, tally
}

// randomChain draws 1–7 narrow ops, MapPartitions heads and barriers included.
func randomChain(rng *rand.Rand) []narrowOp {
	ops := make([]narrowOp, 1+rng.Intn(7))
	for i := range ops {
		k := 2 + rng.Intn(5)
		op := narrowOp{name: fmt.Sprintf("s/op%d", i)}
		switch rng.Intn(4) {
		case 0:
			op.mapf = func(x int) int { return x*k + 1 }
		case 1:
			op.flat = func(x int, emit func(int)) {
				for j := 0; j < x%k; j++ {
					emit(x + j)
				}
			}
		case 2:
			op.pred = func(x int) bool { return x%k != 0 }
		default: // partition-sensitive: sees the worker index and the whole slice
			op.byPart = func(w int, items []int, emit func(int)) {
				emit(len(items) + w)
				for i := len(items) - 1; i >= 0; i-- {
					emit(items[i] + w*k)
				}
			}
		}
		ops[i] = op
	}
	return ops
}

// opTallies reads the per-operator input counts back out of a trace: fused
// spans carry them per op, a single-op stage's span is its own tally.
func opTallies(c *Context) map[string]int64 {
	tally := map[string]int64{}
	for _, sp := range c.Stats().Spans()[1:] { // [0] is the Parallelize root
		if sp.FusedOps == nil {
			tally[sp.Name] += sp.RecordsIn
		}
		for _, op := range sp.FusedOps {
			tally[op.Name] += op.RecordsIn
		}
	}
	return tally
}

// Property: any chain of narrow operators yields, partition by partition, the
// records of the eager reference, with the reference's per-operator tallies —
// also when every stage of the chain loses a worker once and replays it.
func TestQuickFusedUnfusedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		w := 1 + rng.Intn(4)
		data := make([]int, rng.Intn(200))
		for i := range data {
			data[i] = rng.Intn(1000)
		}
		ops := randomChain(rng)
		label := fmt.Sprintf("trial %d (w=%d, %d records, %d ops)", trial, w, len(data), len(ops))

		tracer := NewFaultPlan()
		c := NewContext(w, WithFaultPlan(tracer))
		root := Parallelize(c, "in", data)
		want, wantTally := eagerNarrow(root.Partitions(), ops)
		got := applyNarrow(root, ops).Partitions()
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: partition %d = %v, eager reference %v", label, i, got[i], want[i])
			}
		}
		if tally := opTallies(c); !reflect.DeepEqual(tally, wantTally) {
			t.Fatalf("%s: per-op tallies %v, eager reference %v", label, tally, wantTally)
		}

		// Replay: the last worker of every stage fails its first execution.
		var faults []Fault
		for _, site := range tracer.Trace() {
			if site.Worker == w-1 {
				faults = append(faults, Fault{Stage: site.Stage, Worker: site.Worker, Kind: FaultTransient})
			}
		}
		plan := NewFaultPlan(faults...)
		c = NewContext(w, WithFaultPlan(plan), WithRetries(1), WithBackoff(0))
		got = applyNarrow(Parallelize(c, "in", data), ops).Partitions()
		if err := c.Err(); err != nil {
			t.Fatalf("%s: replay failed: %v", label, err)
		}
		if len(plan.Fired()) != len(faults) || c.Stats().TotalRetries() != len(faults) {
			t.Fatalf("%s: %d faults planned, %d fired, %d retries", label, len(faults), len(plan.Fired()), c.Stats().TotalRetries())
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: replayed partition %d = %v, eager reference %v", label, i, got[i], want[i])
			}
		}
		if tally := opTallies(c); !reflect.DeepEqual(tally, wantTally) {
			t.Fatalf("%s: replayed per-op tallies %v, eager reference %v", label, tally, wantTally)
		}
	}
}

// A fused chain feeding a wide operator agrees with the eager reference
// feeding a plain fold, also when the wide stage's combiner is replayed.
func TestFusedUnfusedAgreeThroughShuffle(t *testing.T) {
	ops := []narrowOp{
		{name: "triple", mapf: func(x int) int { return 3 * x }},
		{name: "odd", pred: func(x int) bool { return x%2 != 0 }},
	}
	for _, w := range []int{1, 2, 4} {
		plan := NewFaultPlan(Fault{Stage: "count/combine", Worker: 0, Kind: FaultTransient})
		c := NewContext(w, WithFaultPlan(plan), WithRetries(2))
		root := Parallelize(c, "in", ints(200))
		eager, _ := eagerNarrow(root.Partitions(), ops)
		want := map[int]int{}
		for _, x := range slices.Concat(eager...) {
			want[x%7]++
		}
		pairs := Map(applyNarrow(root, ops), "pair", func(x int) Pair[int, int] { return Pair[int, int]{x % 7, 1} })
		counts := ReduceByKey(pairs, "count", func(a, b int) int { return a + b })
		if c.Err() != nil || len(plan.Fired()) != 1 {
			t.Fatalf("w=%d: err %v, %d faults fired", w, c.Err(), len(plan.Fired()))
		}
		got := map[int]int{}
		for _, kv := range Collect(counts) {
			got[kv.Key] = kv.Val
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("w=%d: fused %v != eager %v", w, got, want)
		}
	}
}

func TestSpanTreeRendersFusedOps(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(4))
	Map(Map(d, "a", func(x int) int { return x }), "b", func(x int) int { return x }).Len()
	tree := c.Stats().SpanTree()
	if !strings.Contains(tree, "a+b") || !strings.Contains(tree, "fused=2") {
		t.Errorf("span tree missing fused annotation:\n%s", tree)
	}
}

func TestCommonSlashPrefix(t *testing.T) {
	for _, tc := range []struct {
		ops  []string
		want string
	}{
		{[]string{"a/b/c", "a/b/d"}, "a/b/"},
		{[]string{"a/b", "c/d"}, ""},
		{[]string{"noslash", "other"}, ""},
		{[]string{"a/b/c", "a/x"}, "a/"},
	} {
		if got := commonSlashPrefix(tc.ops); got != tc.want {
			t.Errorf("commonSlashPrefix(%v) = %q, want %q", tc.ops, got, tc.want)
		}
	}
}

func TestForceAfterFailureYieldsEmpty(t *testing.T) {
	plan := NewFaultPlan(
		Fault{Stage: "boom", Worker: 0, Occurrence: 1, Kind: FaultTransient},
	)
	c := NewContext(2, WithFaultPlan(plan), WithRetries(0))
	d := Parallelize(c, "in", ints(4))
	Map(d, "boom", func(x int) int { return x }).Materialize()
	if c.Err() == nil {
		t.Fatal("expected stage failure")
	}
	// A chain planned before (or after) the failure drains to empty.
	late := Map(d, "late", func(x int) int { return x })
	if got := late.Len(); got != 0 {
		t.Errorf("post-failure chain produced %d records", got)
	}
	if got := fmt.Sprint(Collect(late)); got != "[]" {
		t.Errorf("post-failure Collect = %s", got)
	}
}
