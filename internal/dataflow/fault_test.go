package dataflow

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// sum is the sequential oracle for the pipeline used in the fault tests.
func sum(items []int) int {
	total := 0
	for _, v := range items {
		total += v
	}
	return total
}

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
	c := NewContext(2, WithRetries(5), WithBackoff(0))
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
	if got := c.Stats().TotalRetries(); got != 0 {
		t.Errorf("TotalRetries = %d, want 0", got)
	}
}

func TestFaultTransientErrorIsRetried(t *testing.T) {
	c := NewContext(3, WithRetries(2), WithBackoff(0))
	var mu sync.Mutex
	failures := 2 // fail the first two executions of worker 1
	d := Parallelize(c, "input", ints(90))
	out := MapPartitions(d, "flaky", func(w int, items []int, emit func(int)) {
		if w == 1 {
			mu.Lock()
			shouldFail := failures > 0
			remaining := failures
			if shouldFail {
				failures--
			}
			mu.Unlock()
			if shouldFail {
				// The message varies per attempt: a transient failure that
				// recurs byte-identically on the retained partition is now
				// classified deterministic and not retried (see the
				// deterministic-recurrence test below).
				panic(Transient(fmt.Errorf("flaky worker, %d failures left", remaining)))
			}
		}
		emit(sum(items))
	})
	got := sum(Collect(out))
	if err := c.Err(); err != nil {
		t.Fatalf("pipeline failed despite retry budget: %v", err)
	}
	if want := sum(ints(90)); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if got := c.Stats().Retries()["flaky"]; got != 2 {
		t.Errorf(`Retries["flaky"] = %d, want 2`, got)
	}
}

// A transient-labeled panic that reproduces byte-identically on the retained
// partition is a deterministic logic fault: the engine must classify it as
// non-retryable after the first replay instead of burning the whole retry
// budget, and surface a StageError carrying the Deterministic flag.
func TestFaultDeterministicPanicStopsRetrying(t *testing.T) {
	c := NewContext(3, WithRetries(5), WithBackoff(0))
	var runs sync.Map
	d := Parallelize(c, "input", ints(90))
	MapPartitions(d, "buggy", func(w int, items []int, emit func(int)) {
		n, _ := runs.LoadOrStore(w, new(int))
		if w == 1 {
			*(n.(*int))++
			// Same message every attempt: deterministic on the retained input.
			panic(Transient(fmt.Errorf("divide by zero at record 17")))
		}
		emit(sum(items))
	}).Materialize()
	err := c.Err()
	if err == nil {
		t.Fatal("pipeline succeeded despite a deterministic failure")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a *StageError: %v", err, err)
	}
	if !se.Deterministic {
		t.Errorf("StageError.Deterministic = false, want true: %v", se)
	}
	if se.Stage != "buggy" || se.Worker != 1 {
		t.Errorf("StageError names stage %q worker %d, want \"buggy\" worker 1", se.Stage, se.Worker)
	}
	if se.Attempt != 2 {
		t.Errorf("failed on attempt %d, want 2 (one replay)", se.Attempt)
	}
	if !strings.Contains(err.Error(), "deterministic") {
		t.Errorf("error message does not mention determinism: %v", err)
	}
	// Exactly one replay: the original execution plus the confirming one.
	if n, ok := runs.Load(1); !ok || *(n.(*int)) != 2 {
		t.Errorf("worker 1 ran %v times, want exactly 2", n)
	}
	if got := c.Stats().TotalRetries(); got != 1 {
		t.Errorf("TotalRetries = %d, want 1 (budget not burned)", got)
	}
}

// Distinct failure messages on consecutive attempts keep the transient
// classification: only identical recurrence is deterministic.
func TestFaultVaryingTransientStillRetries(t *testing.T) {
	c := NewContext(2, WithRetries(3), WithBackoff(0))
	var mu sync.Mutex
	attempts := 0
	d := Parallelize(c, "input", ints(20))
	out := MapPartitions(d, "varying", func(w int, items []int, emit func(int)) {
		if w == 0 {
			mu.Lock()
			attempts++
			n := attempts
			mu.Unlock()
			if n <= 3 {
				panic(Transient(fmt.Errorf("timeout after %d ms", n*10)))
			}
		}
		emit(sum(items))
	})
	got := sum(Collect(out))
	if err := c.Err(); err != nil {
		t.Fatalf("pipeline failed despite varying transient errors: %v", err)
	}
	if want := sum(ints(20)); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestFaultInjectedTransientRetriesToSameResult(t *testing.T) {
	want := runSumPipeline(NewContext(4), 200)
	for _, kind := range []FaultKind{FaultTransient, FaultPanic} {
		t.Run(kind.String(), func(t *testing.T) {
			plan := NewFaultPlan(Fault{Stage: "sum/combine", Worker: 2, Occurrence: 1, Kind: kind})
			c := NewContext(4, WithRetries(2), WithBackoff(0), WithFaultPlan(plan))
			got := runSumPipeline(c, 200)
			if err := c.Err(); err != nil {
				t.Fatalf("pipeline failed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("faulted run diverged: got %v, want %v", got, want)
			}
			if fired := plan.Fired(); len(fired) != 1 || fired[0].Kind != kind {
				t.Errorf("fired = %+v, want one %v fault", fired, kind)
			}
			if c.Stats().TotalRetries() != 1 {
				t.Errorf("TotalRetries = %d, want 1", c.Stats().TotalRetries())
			}
		})
	}
}

func TestFaultOnlyFailedWorkersAreReexecuted(t *testing.T) {
	plan := NewFaultPlan(Fault{Stage: "count", Worker: 0, Occurrence: 1, Kind: FaultTransient})
	c := NewContext(4, WithRetries(1), WithBackoff(0), WithFaultPlan(plan))
	var runs sync.Map
	d := Parallelize(c, "input", ints(40))
	MapPartitions(d, "count", func(w int, items []int, emit func(int)) {
		n, _ := runs.LoadOrStore(w, new(int))
		*(n.(*int))++
		emit(len(items))
	}).Materialize()
	if err := c.Err(); err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	// Worker 0 fails before user code on occurrence 1, runs user code on the
	// retry; workers 1–3 run user code exactly once.
	for w := 0; w < 4; w++ {
		n, ok := runs.Load(w)
		if !ok || *(n.(*int)) != 1 {
			t.Errorf("worker %d user code ran %v times, want exactly 1", w, n)
		}
	}
	// The engine-level trace shows the re-execution of worker 0 only.
	for _, s := range plan.Trace() {
		if s.Stage == "count" && s.Occurrence > 1 && s.Worker != 0 {
			t.Errorf("healthy worker %d was re-executed: %+v", s.Worker, s)
		}
	}
}

func TestFaultRetryBudgetExhausted(t *testing.T) {
	plan := NewFaultPlan(
		Fault{Stage: "sum/combine", Worker: 1, Occurrence: 1, Kind: FaultTransient},
		Fault{Stage: "sum/combine", Worker: 1, Occurrence: 2, Kind: FaultPanic},
		Fault{Stage: "sum/combine", Worker: 1, Occurrence: 3, Kind: FaultTransient},
	)
	c := NewContext(4, WithRetries(2), WithBackoff(0), WithFaultPlan(plan))
	got := runSumPipeline(c, 100)
	err := c.Err()
	if err == nil {
		t.Fatal("expected failure after exhausting 3 attempts")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StageError, got %T", err)
	}
	if se.Stage != "sum/combine" || se.Worker != 1 || se.Attempt != 3 {
		t.Errorf("unexpected terminal failure site: %+v", se)
	}
	if !IsTransient(err) {
		t.Error("terminal cause should still be the (transient) injected fault")
	}
	if len(got) != 0 {
		t.Errorf("failed pipeline leaked results: %v", got)
	}
	if len(plan.Fired()) != 3 {
		t.Errorf("fired %d faults, want 3", len(plan.Fired()))
	}
}

func TestFaultSurvivesSameSiteFailingTwice(t *testing.T) {
	want := runSumPipeline(NewContext(4), 100)
	plan := NewFaultPlan(
		Fault{Stage: "sum/combine", Worker: 1, Occurrence: 1, Kind: FaultTransient},
		Fault{Stage: "sum/combine", Worker: 1, Occurrence: 2, Kind: FaultPanic},
	)
	c := NewContext(4, WithRetries(2), WithBackoff(0), WithFaultPlan(plan))
	got := runSumPipeline(c, 100)
	if err := c.Err(); err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("twice-faulted run diverged: got %v, want %v", got, want)
	}
}

func TestFaultDownstreamOperatorsShortCircuit(t *testing.T) {
	plan := NewFaultPlan(Fault{Stage: "key", Worker: 0, Occurrence: 1, Kind: FaultTransient})
	c := NewContext(2, WithFaultPlan(plan)) // no retries: first fault is terminal
	d := Parallelize(c, "input", ints(50))
	// Materialize pins the fault site: unforced, "key" would fuse with
	// "after" and the fault's stage name would not match.
	keyed := Map(d, "key", func(v int) Pair[int, int] { return Pair[int, int]{Key: v, Val: v} }).Materialize()
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

func TestFaultCancellationDuringRetryBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	plan := NewFaultPlan(Fault{Stage: "work", Worker: 0, Occurrence: 1, Kind: FaultTransient})
	// A long backoff that the cancellation must interrupt well before it ends.
	c := NewContext(1, WithCancel(ctx), WithRetries(1), WithBackoff(time.Hour), WithFaultPlan(plan))
	d := Parallelize(c, "input", ints(10))
	done := make(chan struct{})
	go func() {
		Map(d, "work", func(v int) int { return v }).Materialize()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the retry backoff")
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want to wrap context.Canceled", err)
	}
}

func TestFaultPlanTraceIsDeterministic(t *testing.T) {
	var traces [][]Site
	for i := 0; i < 3; i++ {
		plan := NewFaultPlan()
		c := NewContext(4, WithFaultPlan(plan))
		runSumPipeline(c, 100)
		if err := c.Err(); err != nil {
			t.Fatalf("empty plan must inject nothing, got %v", err)
		}
		if fired := plan.Fired(); len(fired) != 0 {
			t.Fatalf("empty plan fired faults: %+v", fired)
		}
		traces = append(traces, plan.Trace())
	}
	for i := 1; i < len(traces); i++ {
		if !reflect.DeepEqual(traces[0], traces[i]) {
			t.Fatalf("trace %d differs from trace 0 despite identical jobs", i)
		}
	}
	// Every stage of the job appears in the trace once per worker.
	seen := make(map[Site]bool, len(traces[0]))
	for _, s := range traces[0] {
		if seen[s] {
			t.Fatalf("duplicate trace site %+v", s)
		}
		seen[s] = true
	}
	for _, stage := range []string{"key", "sum/combine", "sum/scatter", "sum/gather", "sum/reduce"} {
		for w := 0; w < 4; w++ {
			if !seen[Site{Stage: stage, Worker: w, Occurrence: 1}] {
				t.Errorf("stage %q worker %d missing from trace", stage, w)
			}
		}
	}
}

func TestFaultRandomPlanIsSeedDeterministic(t *testing.T) {
	tracer := NewFaultPlan()
	c := NewContext(4, WithFaultPlan(tracer))
	runSumPipeline(c, 100)
	sites := tracer.Trace()

	a := RandomFaultPlan(7, sites, 5)
	b := RandomFaultPlan(7, sites, 5)
	if !reflect.DeepEqual(a.planned, b.planned) {
		t.Errorf("same seed produced different plans:\n%v\n%v", a.planned, b.planned)
	}
	d := RandomFaultPlan(8, sites, 5)
	if reflect.DeepEqual(a.planned, d.planned) {
		t.Error("different seeds produced identical plans (suspicious for 5 picks)")
	}
	if n := len(RandomFaultPlan(1, sites, len(sites)+10).planned); n != len(sites) {
		t.Errorf("oversized n planned %d faults, want clamp to %d", n, len(sites))
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
// interference — each keeps its own stats, error latch, and fault plan.
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
	plan := NewFaultPlan(Fault{Stage: "key", Worker: 1, Occurrence: 1, Kind: FaultTransient})
	c := NewContext(2, WithFaultPlan(plan))
	runSumPipeline(c, 50)
	err := c.Err()
	if err == nil {
		t.Fatal("expected failure")
	}
	msg := err.Error()
	for _, want := range []string{`stage "key"`, "worker 1", "attempt 1", "injected transient fault"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}
