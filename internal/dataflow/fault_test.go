package dataflow

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// runSumPipeline runs a small multi-stage job (map → reduce-by-key → collect)
// and returns the per-key sums, exercising both narrow and shuffle stages.
func runSumPipeline(c *Context, n int) map[int]int {
	d := Parallelize(c, "input", ints(n))
	keyed := Map(d, "key", func(v int) Pair[int, int] {
		return Pair[int, int]{Key: v % 7, Val: v}
	})
	reduced := ReduceByKey(keyed, "sum", func(a, b int) int { return a + b })
	out := make(map[int]int)
	for _, p := range Collect(reduced) {
		out[p.Key] = p.Val
	}
	return out
}

func TestFaultWorkerPanicBecomesStageError(t *testing.T) {
	c := NewContext(4)
	d := Parallelize(c, "input", ints(100))
	Map(d, "boom", func(v int) int {
		if v == 42 {
			panic("user code bug")
		}
		return v
	}).Materialize()
	err := c.Err()
	if err == nil {
		t.Fatal("expected a stage error after a worker panic")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StageError, got %T: %v", err, err)
	}
	if se.Stage != "boom" || se.Attempt != 1 {
		t.Errorf("unexpected failure site: %+v", se)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected a *PanicError cause, got %v", err)
	}
	if pe.Value != "user code bug" || len(pe.Stack) == 0 {
		t.Errorf("panic not captured faithfully: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
}

func TestFaultRealPanicIsNotRetried(t *testing.T) {
	c := NewContext(2)
	var calls sync.Map
	d := Parallelize(c, "input", ints(10))
	Map(d, "boom", func(v int) int {
		n, _ := calls.LoadOrStore(v, new(int))
		*(n.(*int))++
		panic("deterministic bug")
	}).Materialize()
	if c.Err() == nil {
		t.Fatal("expected failure")
	}
	calls.Range(func(_, n any) bool {
		if *(n.(*int)) > 1 {
			t.Errorf("record reprocessed %d times; genuine panics must not be retried", *(n.(*int)))
		}
		return true
	})
}

func TestFaultDownstreamOperatorsShortCircuit(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "input", ints(50))
	// Materialize makes "key" fail on its own, before "after" exists to fuse
	// with it.
	keyed := Map(d, "key", func(v int) Pair[int, int] {
		if v == 0 {
			panic("bad record")
		}
		return Pair[int, int]{Key: v, Val: v}
	}).Materialize()
	ran := false
	mapped := Map(keyed, "after", func(p Pair[int, int]) Pair[int, int] { ran = true; return p })
	if ran {
		t.Error("operator after a terminal failure executed user code")
	}
	if got := Collect(mapped); got != nil {
		t.Errorf("Collect on failed pipeline = %v, want nil", got)
	}
	if _, ok := GlobalReduce(mapped, "reduce", func(a, _ Pair[int, int]) Pair[int, int] { return a }); ok {
		t.Error("GlobalReduce reported a value on a failed pipeline")
	}
	if c.Err() == nil {
		t.Error("Err() should report the latched failure")
	}
}

func TestFaultCancellationAbortsBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the job starts
	c := NewContext(4, WithCancel(ctx))
	got := runSumPipeline(c, 100)
	err := c.Err()
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want to wrap context.Canceled", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("cancellation should surface as a *StageError, got %T", err)
	}
	if len(got) != 0 {
		t.Errorf("cancelled pipeline leaked results: %v", got)
	}
}

func TestFaultParallelizeEmptyInput(t *testing.T) {
	for _, items := range [][]int{nil, {}} {
		c := NewContext(4)
		d := Parallelize(c, "empty", items)
		if got := len(d.Partitions()); got != 4 {
			t.Fatalf("empty input yielded %d partitions, want 4", got)
		}
		if d.Len() != 0 {
			t.Errorf("empty input has %d records", d.Len())
		}
		// The stage is still accounted (with zero work) and downstream
		// shuffles over the empty dataset run fine.
		reduced := ReduceByKey(
			Map(d, "key", func(v int) Pair[int, int] { return Pair[int, int]{Key: v, Val: v} }),
			"sum", func(a, b int) int { return a + b })
		if got := Collect(reduced); len(got) != 0 {
			t.Errorf("reduce over empty input = %v", got)
		}
		if err := c.Err(); err != nil {
			t.Errorf("empty pipeline failed: %v", err)
		}
	}
}

func TestFaultHashPartitionSingleWorker(t *testing.T) {
	c := NewContext(1)
	for _, k := range []string{"", "a", "long-key-long-key"} {
		if got := hashPartition(c, k); got != 0 {
			t.Errorf("hashPartition(1 worker, %q) = %d, want 0", k, got)
		}
	}
}

// TestFaultConcurrentJobsNeedSeparateContexts documents the ownership rule:
// one Context per job. Two jobs on two Contexts run concurrently without
// interference — each keeps its own stats and error latch.
func TestFaultConcurrentJobsNeedSeparateContexts(t *testing.T) {
	const jobs = 8
	var wg sync.WaitGroup
	results := make([]map[int]int, jobs)
	ctxs := make([]*Context, jobs)
	for i := 0; i < jobs; i++ {
		ctxs[i] = NewContext(1 + i%4)
	}
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runSumPipeline(ctxs[i], 300)
		}(i)
	}
	wg.Wait()
	want := runSumPipeline(NewContext(1), 300)
	for i, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d diverged: got %v, want %v", i, got, want)
		}
		if err := ctxs[i].Err(); err != nil {
			t.Errorf("job %d failed: %v", i, err)
		}
	}
	// Per-context stats: each job recorded its own stages, none of another's.
	for i, c := range ctxs {
		byName := map[string]int{}
		for _, sp := range c.Stats().Spans() {
			byName[sp.Name]++
			if len(sp.PerWorker) != c.Workers() {
				t.Errorf("job %d stage %q accounted %d workers, want %d", i, sp.Name, len(sp.PerWorker), c.Workers())
			}
		}
		for _, name := range []string{"input", "key", "sum"} {
			if byName[name] != 1 {
				t.Errorf("job %d recorded stage %q %d times, want 1", i, name, byName[name])
			}
		}
	}
}

func TestFaultStageErrorMessageNamesSite(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "input", ints(50)) // worker 1 holds 25..49
	keyed := Map(d, "key", func(v int) Pair[int, int] {
		if v == 30 {
			panic("bad record 30")
		}
		return Pair[int, int]{Key: v % 7, Val: v}
	})
	ReduceByKey(keyed, "sum", func(a, b int) int { return a + b })
	err := c.Err()
	if err == nil {
		t.Fatal("expected failure")
	}
	msg := err.Error()
	for _, want := range []string{`stage "key"`, "worker 1", "attempt 1", "worker panic: bad record 30"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}
