package dataflow

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

// runSmallPipeline exercises every traced operator shape once.
func runSmallPipeline(t *testing.T, workers int) *Context {
	t.Helper()
	c := NewContext(workers)
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	d := Parallelize(c, "input", items)
	m := Map(d, "double", func(x int) int { return 2 * x })
	keyed := Map(m, "key", func(x int) Pair[int, int] { return Pair[int, int]{Key: x % 7, Val: x} })
	red := ReduceByKey(keyed, "sum-by-mod", func(a, b int) int { return a + b })
	grp := GroupByKey(keyed, "group-by-mod")
	_ = CoGroup(red, Map(grp, "count", func(p Pair[int, []int]) Pair[int, int] {
		return Pair[int, int]{Key: p.Key, Val: len(p.Val)}
	}), "join")
	part := PartitionBy(m, "spread", func(x int) int { return x })
	if _, ok := GlobalReduce(part, "total", func(a, b int) int { return a + b }); !ok {
		t.Fatal("GlobalReduce found no records")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkSpanAccounting asserts the accounting invariant the benchmark harness
// depends on: every span's input and max-worker counts are its per-worker
// counts' sum and maximum over all workers, and Stats.TotalWork and
// CriticalPath are the per-worker counts' sum and summed per-stage maxima.
func checkSpanAccounting(t *testing.T, c *Context) {
	t.Helper()
	st := c.Stats()
	var total, critical int64
	for _, sp := range st.Spans() {
		if len(sp.PerWorker) != c.Workers() {
			t.Errorf("span %s accounted %d workers, want %d", sp.Name, len(sp.PerWorker), c.Workers())
		}
		var in, most int64
		for _, n := range sp.PerWorker {
			in += n
			most = max(most, n)
		}
		if in != sp.RecordsIn || most != sp.MaxWorkerRecords {
			t.Errorf("span %s: records-in %d / max %d, per-worker %v", sp.Name, sp.RecordsIn, sp.MaxWorkerRecords, sp.PerWorker)
		}
		total += in
		critical += most
	}
	if total != st.TotalWork() || critical != st.CriticalPath() {
		t.Errorf("per-worker sums %d/%d != TotalWork %d / CriticalPath %d", total, critical, st.TotalWork(), st.CriticalPath())
	}
}

// TestSpansReconcileWithTotalWork: the spans are the work accounting.
func TestSpansReconcileWithTotalWork(t *testing.T) {
	for _, w := range []int{1, 3} {
		c := runSmallPipeline(t, w)
		if c.Stats().TotalWork() == 0 {
			t.Fatalf("w=%d: no work accounted", w)
		}
		checkSpanAccounting(t, c)
	}
}

func TestSpanFieldsPopulated(t *testing.T) {
	c := runSmallPipeline(t, 4)
	spans := c.Stats().Spans()
	byName := map[string]metrics.Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}

	in, ok := byName["input"]
	if !ok {
		t.Fatal("no span for the input stage")
	}
	if in.RecordsIn != 100 || in.RecordsOut != 100 {
		t.Errorf("input span records = %d/%d, want 100/100", in.RecordsIn, in.RecordsOut)
	}
	if in.WallMS < 0 || in.StartMS < 0 {
		t.Errorf("input span has negative timing: %+v", in)
	}
	if in.Goroutines <= 0 {
		t.Errorf("input span did not sample goroutines: %+v", in)
	}

	red := byName["sum-by-mod"]
	if red.CombinerIn != 100 {
		t.Errorf("reduce combiner-in = %d, want 100", red.CombinerIn)
	}
	// 4 partitions × ≤7 keys: the combiner must have pre-aggregated.
	if red.CombinerOut >= red.CombinerIn || red.CombinerOut < 7 {
		t.Errorf("reduce combiner-out = %d (in %d)", red.CombinerOut, red.CombinerIn)
	}
	if red.RecordsOut != 7 {
		t.Errorf("reduce records-out = %d, want 7", red.RecordsOut)
	}
	if red.ShuffleBytes <= 0 {
		t.Errorf("reduce shuffle bytes = %d, want > 0 on 4 workers", red.ShuffleBytes)
	}
	if grp := byName["group-by-mod"]; grp.ShuffleBytes <= 0 {
		t.Errorf("group shuffle bytes = %d, want > 0", grp.ShuffleBytes)
	}

	// Stage 0 always takes the memory sample.
	if spans[0].HeapAllocBytes == 0 || spans[0].Goroutines <= 0 {
		t.Errorf("stage 0 span lacks its runtime sample: %+v", spans[0])
	}
}

// TestGlobalReduceAccounting pins GlobalReduce (per-worker partial folds,
// then an in-order fold of the partials): for any worker count — powers of
// two and not — the result equals a sequential in-order fold even when f is
// only associative (string concatenation is order-sensitive), and the
// operator's span accounting still reconciles with Stats.TotalWork.
func TestGlobalReduceAccounting(t *testing.T) {
	items := make([]string, 101)
	want := ""
	for i := range items {
		items[i] = string(rune('a' + i%26))
		want += items[i]
	}
	for _, w := range []int{1, 2, 3, 5, 8} {
		c := NewContext(w)
		d := Parallelize(c, "input", items)
		got, ok := GlobalReduce(d, "concat", func(a, b string) string { return a + b })
		if !ok {
			t.Fatalf("w=%d: GlobalReduce found no records: %v", w, c.Err())
		}
		if got != want {
			t.Errorf("w=%d: tree merge reordered the fold:\n got %q\nwant %q", w, got, want)
		}
		checkSpanAccounting(t, c)
		var sp *metrics.Span
		spans := c.Stats().Spans()
		for i := range spans {
			if spans[i].Name == "concat" {
				sp = &spans[i]
			}
		}
		if sp == nil {
			t.Fatalf("w=%d: no span for GlobalReduce", w)
		}
		if sp.RecordsIn != int64(len(items)) || sp.RecordsOut != 1 {
			t.Errorf("w=%d: GlobalReduce span records = %d/%d, want %d/1",
				w, sp.RecordsIn, sp.RecordsOut, len(items))
		}
	}

	// The empty dataset still reports "no records" and one zero-count span.
	c := NewContext(3)
	d := Parallelize(c, "input", []string(nil))
	if _, ok := GlobalReduce(d, "concat", func(a, b string) string { return a + b }); ok {
		t.Error("GlobalReduce over an empty dataset reported a value")
	}
}

// TestSpanAllocDeltas: sampled spans report process-wide allocation deltas
// next to the end-of-stage heap sample.
func TestSpanAllocDeltas(t *testing.T) {
	c := runSmallPipeline(t, 2)
	sampled := 0
	for _, sp := range c.Stats().Spans() {
		if sp.HeapAllocBytes > 0 {
			sampled++
			if sp.MallocsDelta == 0 && sp.AllocBytesDelta == 0 {
				t.Errorf("sampled span %s has no allocation deltas", sp.Name)
			}
		}
	}
	if sampled == 0 {
		t.Error("no span carried a memory sample (stage 0 always samples)")
	}
}

func TestSingleWorkerShufflesNothing(t *testing.T) {
	c := runSmallPipeline(t, 1)
	for _, sp := range c.Stats().Spans() {
		if sp.ShuffleBytes != 0 {
			t.Errorf("stage %s moved %d bytes on a single worker", sp.Name, sp.ShuffleBytes)
		}
	}
}

// TestSpeedupEmptyPipeline covers the zero-work edge case: a pipeline over an
// empty dataset records stages with zero counts, CriticalPath is zero, and
// Speedup must define itself as 1.0 instead of dividing by zero.
func TestSpeedupEmptyPipeline(t *testing.T) {
	c := NewContext(3)
	d := Parallelize(c, "input", []int(nil))
	keyed := Map(d, "key", func(x int) Pair[int, int] { return Pair[int, int]{Key: x, Val: x} })
	red := ReduceByKey(keyed, "reduce", func(a, b int) int { return a + b })
	if got := Collect(red); len(got) != 0 {
		t.Fatalf("empty pipeline produced %d records", len(got))
	}
	st := c.Stats()
	if st.TotalWork() != 0 || st.CriticalPath() != 0 {
		t.Fatalf("empty pipeline accounted work: total=%d critical=%d", st.TotalWork(), st.CriticalPath())
	}
	if len(st.Spans()) == 0 {
		t.Fatal("empty pipeline recorded no stages")
	}
	if got := st.Speedup(); got != 1.0 {
		t.Errorf("Speedup of zero-work pipeline = %v, want 1.0", got)
	}
}

func TestSpanTreeRendering(t *testing.T) {
	c := runSmallPipeline(t, 2)
	tree := c.Stats().SpanTree()
	for _, want := range []string{"input", "sum-by-mod", "join"} {
		if !strings.Contains(tree, want) {
			t.Errorf("span tree lacks %q:\n%s", want, tree)
		}
	}
}

func TestFailedStageRecordsNoSpan(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "input", []int{1, 2, 3})
	Map(d, "boom", func(x int) int {
		if x == 1 {
			panic("bad record")
		}
		return x
	}).Materialize()
	if c.Err() == nil {
		t.Fatal("panic did not surface")
	}
	for _, sp := range c.Stats().Spans() {
		if sp.Name == "boom" {
			t.Error("failed stage recorded a span")
		}
	}
	// The accounting invariant holds on failed pipelines too.
	checkSpanAccounting(t, c)
}
