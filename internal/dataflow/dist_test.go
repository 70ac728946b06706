package dataflow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// distProgram is the driver every process of the test cluster replays: a
// keyed shuffle (ReduceByKey), an unkeyed repartition (PartitionBy), a CoGroup,
// a gather (Len), and a GlobalReduce — one of each collective shape. The
// returned slice is sorted, so it is comparable across partitioning regimes
// (single-process maphash vs the cluster's seeded hash).
func distProgram(c *Context, n int) ([]Pair[int, int], int, int64) {
	d := Parallelize(c, "input", ints(n))
	keyed := Map(d, "key", func(v int) Pair[int, int] {
		return Pair[int, int]{Key: v % 17, Val: v}
	})
	sums := ReduceByKey(keyed, "sum", func(a, b int) int { return a + b })

	mods := PartitionBy(Map(d, "mod", func(v int) int { return v % 5 }), "mods", func(v int) int { return v })
	tags := Map(mods, "tag", func(v int) Pair[int, string] {
		return Pair[int, string]{Key: v % 17, Val: "x"}
	})
	joined := CoGroup(sums, tags, "join")
	boosted := Map(joined, "boost", func(g CoGrouped[int, int, string]) Pair[int, int] {
		total := 0
		for _, v := range g.Left {
			total += v
		}
		return Pair[int, int]{Key: g.Key, Val: total + len(g.Right)}
	})

	loads := MapPartitions(d, "load", func(_ int, items []int, emit func(int64)) {
		var s int64
		for _, v := range items {
			s += int64(v)
		}
		emit(s)
	})
	total, _ := GlobalReduce(loads, "total", func(a, b int64) int64 { return a + b })

	out := Collect(boosted)
	sortPairs(out)
	return out, boosted.Len(), total
}

type distOutput struct {
	pairs []Pair[int, int]
	count int
	total int64
}

// runDistCluster runs distProgram on an in-process cluster: one coordinator
// Context plus cfg.Workers worker goroutines, each dialing the coordinator's
// unix socket and replaying the driver over its own Context. Spawn doubles as
// the respawn hook, so injected kills exercise real lineage recovery. Returns
// the coordinator's result, its terminal error (nil on success), and the
// cluster for metric assertions.
func runDistCluster(t *testing.T, n int, cfg ClusterConfig, driver func(c *Context)) (*Cluster, error) {
	t.Helper()
	cfg.Network = "unix"
	cfg.Addr = filepath.Join(t.TempDir(), "coord.sock")
	var wg sync.WaitGroup
	cfg.Spawn = func(rank int) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := DialWorker("unix", cfg.Addr, rank)
			if err != nil {
				return // coordinator already gone (job over)
			}
			defer w.Close()
			c := NewContext(0, WithWorkerConn(w))
			driver(c)
			if c.Err() == nil {
				w.Goodbye()
			}
		}()
		return nil
	}
	cl, err := StartCluster(cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	c := NewContext(0, WithCluster(cl))
	driver(c)
	err = c.Err()
	cl.Close()
	wg.Wait()
	return cl, err
}

// singleOracle computes distProgram's expected output single-process.
func singleOracle(n int) distOutput {
	c := NewContext(4)
	pairs, count, total := distProgram(c, n)
	if err := c.Err(); err != nil {
		panic(err)
	}
	return distOutput{pairs, count, total}
}

func TestDistMatchesSingleProcessAcrossWorkerCounts(t *testing.T) {
	const n = 5000
	want := singleOracle(n)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			results := map[int]distOutput{} // rank → worker-side result; -1 coordinator
			driver := func(c *Context) {
				pairs, count, total := distProgram(c, n)
				if c.Err() != nil {
					return
				}
				mu.Lock()
				results[c.rank] = distOutput{pairs, count, total}
				mu.Unlock()
			}
			cl, err := runDistCluster(t, n, ClusterConfig{Workers: workers}, driver)
			if err != nil {
				t.Fatalf("distributed run failed: %v", err)
			}
			if len(results) != workers+1 {
				t.Fatalf("got results from %d processes, want %d", len(results), workers+1)
			}
			// Every process — coordinator included — holds the identical result.
			for rank, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rank %d diverged from the single-process oracle (%d pairs, count %d, total %d)",
						rank, len(got.pairs), got.count, got.total)
				}
			}
			if c := cl.CollectiveTrace(); len(c) == 0 {
				t.Error("no collectives traced")
			}
		})
	}

	// A keyed shuffle's release decodes bucket by bucket; a count whose last
	// byte is a continuation byte fails it, where it once decoded to 0.
	pc, _ := valueCodecFor[Pair[packedRecord, int]]()
	good := appendBlob(nil, pc.AppendValue(nil, Pair[packedRecord, int]{Key: 7, Val: 3}))
	bad := pc.AppendValue(nil, Pair[packedRecord, int]{Key: 7, Val: 3})
	bad[len(bad)-1] = 0x80
	for _, tc := range []struct {
		bucket []byte
		ok     bool
	}{{good, true}, {appendBlob(nil, bad), false}} {
		sources, err := splitBlobs(appendBlob(appendBlob(nil, good), tc.bucket))
		if err == nil {
			var recs []Pair[packedRecord, int]
			recs, err = decodeLists(pc, sources)
			if err == nil && (len(recs) != 2 || recs[1].Val != 3) {
				t.Errorf("bucket %v decodes to %v", tc.bucket, recs)
			}
		}
		if tc.ok != (err == nil) || err != nil && !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("bucket %v: err = %v, want ok=%v or ErrCorruptRecord", tc.bucket, err, tc.ok)
		}
	}
}

// TestDistOperatorPanicIsStageError: a panic in operator code that runs on
// the driver rather than inside a partition's stage body fails the job as a
// *StageError naming its stage, single-process and in a cluster, instead of
// crashing a process. Rows: f while GlobalReduce's partials fold
// (name/merge), and a PartitionBy partitioner, which a worker rank runs while
// it encodes and routes its partition (name/scatter).
func TestDistOperatorPanicIsStageError(t *testing.T) {
	for _, tc := range []struct {
		name, stage, panic string
		driver             func(c *Context)
	}{
		{"global-reduce-merge", "total/merge", "merge", func(c *Context) {
			// One record per partition: no partial fold calls f, the merge does.
			d := Parallelize(c, "input", []int64{1, 2})
			GlobalReduce(d, "total", func(a, b int64) int64 { panic("merge") })
		}},
		{"partition-by", "place/scatter", "part", func(c *Context) {
			d := Parallelize(c, "input", ints(10))
			PartitionBy(d, "place", func(int) int { panic("part") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(mode string, err error) {
				var se *StageError
				if !errors.As(err, &se) || se.Stage != tc.stage || !strings.Contains(err.Error(), "panic: "+tc.panic) {
					t.Errorf("%s: err = %v, want a panic at %s", mode, err, tc.stage)
				}
			}
			c := NewContext(2)
			tc.driver(c)
			check("single-process", c.Err())
			// The coordinator's own failure or a worker's, whichever reports first.
			_, err := runDistCluster(t, 2, ClusterConfig{Workers: 2}, tc.driver)
			check("cluster", err)
		})
	}
}

// killSeqFor traces a fault-free 2-worker run and returns a mid-program
// shuffle barrier to schedule process faults at.
func killSeqFor(t *testing.T, n int) int {
	t.Helper()
	driver := func(c *Context) { distProgram(c, n) }
	cl, err := runDistCluster(t, n, ClusterConfig{Workers: 2}, driver)
	if err != nil {
		t.Fatalf("trace run failed: %v", err)
	}
	trace := cl.CollectiveTrace()
	if len(trace) < 3 {
		t.Fatalf("trace too short: %v", trace)
	}
	return trace[len(trace)/2].Seq
}

// runDistRecovery runs distProgram on a 2-worker cluster with faults and
// requires the coordinator's output to equal the single-process oracle. The
// driver hook runs on every process before the program.
func runDistRecovery(t *testing.T, n int, faults []ProcFault, hook func(c *Context)) *Cluster {
	t.Helper()
	want := singleOracle(n)
	var mu sync.Mutex
	var got distOutput
	driver := func(c *Context) {
		if hook != nil {
			hook(c)
		}
		pairs, count, total := distProgram(c, n)
		if c.cluster != nil && c.Err() == nil {
			mu.Lock()
			got = distOutput{pairs, count, total}
			mu.Unlock()
		}
	}
	cl, err := runDistCluster(t, n, ClusterConfig{Workers: 2, ProcFaults: faults}, driver)
	if err != nil {
		t.Fatalf("run failed instead of recovering: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered run diverged from the single-process oracle")
	}
	return cl
}

// wantLosses checks the loss and respawn counters of a recovered run.
func wantLosses(t *testing.T, cl *Cluster, n int64) {
	t.Helper()
	counters := cl.ctx.Stats().Metrics()
	if v := counters.Counter(metrics.ClusterLosses).Value(); v != n {
		t.Errorf("losses = %d, want %d", v, n)
	}
	if v := counters.Counter(metrics.ClusterRespawns).Value(); v != n {
		t.Errorf("respawns = %d, want %d", v, n)
	}
}

func TestDistWorkerKillRecoversViaLineage(t *testing.T) {
	const n = 5000
	seq := killSeqFor(t, n)
	cl := runDistRecovery(t, n, []ProcFault{{Seq: seq, Rank: 1, Kind: ProcKill}}, nil)
	wantLosses(t, cl, 1)
	if v := cl.ctx.Stats().Metrics().Counter(metrics.ClusterReplayedReleases).Value(); v == 0 {
		t.Error("respawned worker fast-forwarded through no replayed releases")
	}
	// The respawn is accounted as one retry of the span that owns the
	// collective frontier at the loss: the barrier rank 1 died at, or an
	// earlier one rank 0 had not reached yet. Every barrier up to the kill
	// belongs to an operator with a span (sum, mods, join).
	var retried []string
	for _, sp := range cl.ctx.Stats().Spans() {
		for range sp.Retries {
			retried = append(retried, sp.Name)
		}
	}
	if len(retried) != 1 {
		t.Errorf("spans account retries %v, want one on the frontier's span", retried)
	}
}

func TestDistRepeatedKillAtSameBarrierIsDeterministic(t *testing.T) {
	const n = 2000
	seq := killSeqFor(t, n)
	driver := func(c *Context) { distProgram(c, n) }
	// Two kills for the same rank at the same barrier: the respawned process
	// replays, fires the second kill at the same frontier, and the
	// coordinator classifies the loss as deterministic.
	cfg := ClusterConfig{
		Workers: 2,
		ProcFaults: []ProcFault{
			{Seq: seq, Rank: 1, Kind: ProcKill},
			{Seq: seq, Rank: 1, Kind: ProcKill},
		},
	}
	_, err := runDistCluster(t, n, cfg, driver)
	if err == nil {
		t.Fatal("expected a terminal error from the repeated kill")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StageError, got %T: %v", err, err)
	}
	if !se.Deterministic {
		t.Errorf("repeated death at one barrier not classified deterministic: %+v", se)
	}
	if !errors.Is(err, ErrProcessLoss) {
		t.Errorf("terminal loss does not wrap ErrProcessLoss: %v", err)
	}
	if se.Worker != 1 {
		t.Errorf("loss attributed to worker %d, want 1", se.Worker)
	}
}

// TestDistRespawnBudgetExhaustionIsTerminalAndTransient: one rank killed at
// defaultMaxRespawns+1 successive barriers outlives its respawn budget. The
// kills sit at distinct barriers, so the loss is transient, not
// deterministic.
func TestDistRespawnBudgetExhaustionIsTerminalAndTransient(t *testing.T) {
	const n = 2000
	seq := killSeqFor(t, n)
	driver := func(c *Context) { distProgram(c, n) }
	cfg := ClusterConfig{Workers: 2}
	for i := 0; i <= defaultMaxRespawns; i++ {
		cfg.ProcFaults = append(cfg.ProcFaults, ProcFault{Seq: seq + i, Rank: 0, Kind: ProcKill})
	}
	_, err := runDistCluster(t, n, cfg, driver)
	if err == nil {
		t.Fatal("expected a terminal error once the respawn budget is spent")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StageError, got %T: %v", err, err)
	}
	if se.Deterministic {
		t.Errorf("losses at distinct barriers misclassified deterministic: %+v", se)
	}
	if !IsTransient(se.Cause) {
		t.Errorf("process loss not classified transient: %v", se.Cause)
	}
	if !errors.Is(err, ErrProcessLoss) {
		t.Errorf("error chain lacks the process-loss sentinel: %v", err)
	}
	if se.Worker != 0 || se.Attempt != defaultMaxRespawns+1 {
		t.Errorf("loss site %+v, want worker 0 at attempt %d", se, defaultMaxRespawns+1)
	}
}

// TestDistDropIsOneLossAndOneRespawn: a dropped connection is a lost rank,
// recovered by one respawn and lineage replay.
func TestDistDropIsOneLossAndOneRespawn(t *testing.T) {
	const n = 5000
	seq := killSeqFor(t, n)
	cl := runDistRecovery(t, n, []ProcFault{{Seq: seq, Rank: 0, Kind: ProcDisconnect}}, nil)
	wantLosses(t, cl, 1)
}

// TestDistSilentDeathIsLostAtOnce: a worker whose connection closes with no
// fault notice and no goodbye is lost on the broken connection, well inside
// the heartbeat deadline.
func TestDistSilentDeathIsLostAtOnce(t *testing.T) {
	const n = 5000
	var mu sync.Mutex
	var diedAt, respawnedAt time.Time
	hook := func(c *Context) {
		if c.worker == nil || c.rank != 1 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if diedAt.IsZero() {
			diedAt = time.Now()
			c.worker.conn.Close() // the first generation dies silently
		} else if respawnedAt.IsZero() {
			respawnedAt = time.Now()
		}
	}
	cl := runDistRecovery(t, n, nil, hook)
	wantLosses(t, cl, 1)
	if respawnedAt.IsZero() {
		t.Fatal("rank 1 was never respawned")
	}
	if took := respawnedAt.Sub(diedAt); took >= defaultHeartbeatDeadline/2 {
		t.Errorf("replacement started %v after the death, want under %v", took, defaultHeartbeatDeadline/2)
	}
}

// TestDistDelayedContribution: a stalled contribution holds its barrier
// without a loss.
func TestDistDelayedContribution(t *testing.T) {
	const n = 5000
	seq := killSeqFor(t, n)
	cl := runDistRecovery(t, n, []ProcFault{{Seq: seq, Rank: 0, Kind: ProcDelay, Delay: 50 * time.Millisecond}}, nil)
	wantLosses(t, cl, 0)
}

func TestDistDivergentDriversAreDetected(t *testing.T) {
	const n = 1000
	driver := func(c *Context) {
		d := Parallelize(c, "input", ints(n))
		name := "sum"
		if c.worker != nil && c.rank == 1 {
			name = "sum-divergent" // rank 1 disagrees about the program
		}
		keyed := Map(d, "key", func(v int) Pair[int, int] {
			return Pair[int, int]{Key: v % 7, Val: v}
		})
		Collect(ReduceByKey(keyed, name, func(a, b int) int { return a + b }))
	}
	_, err := runDistCluster(t, n, ClusterConfig{Workers: 2}, driver)
	if err == nil {
		t.Fatal("expected the coordinator to flag the divergent replica")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StageError, got %T: %v", err, err)
	}
	if !se.Deterministic {
		t.Errorf("driver divergence must be deterministic (respawn cannot fix it): %+v", se)
	}
}

func TestDistLenIsMemoizedPerDataset(t *testing.T) {
	const n = 1000
	driver := func(c *Context) {
		d := Parallelize(c, "input", ints(n))
		keyed := Map(d, "key", func(v int) Pair[int, int] {
			return Pair[int, int]{Key: v % 7, Val: v}
		})
		sums := ReduceByKey(keyed, "sum", func(a, b int) int { return a + b })
		a, b := sums.Len(), sums.Len() // second call must not run a second barrier
		if a != 7 || b != 7 {
			panic(fmt.Sprintf("Len = %d, %d, want 7", a, b))
		}
	}
	cl, err := runDistCluster(t, n, ClusterConfig{Workers: 2}, driver)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	lens := 0
	for _, site := range cl.CollectiveTrace() {
		if site.Name == "len" {
			lens++
		}
	}
	if lens != 1 {
		t.Errorf("Len ran %d barriers, want 1 (memoized)", lens)
	}
}

func TestDistMissingCodecIsTerminal(t *testing.T) {
	type opaque struct{ x int } // no codec registered for this type
	driver := func(c *Context) {
		d := Parallelize(c, "input", []opaque{{1}, {2}, {3}})
		Collect(PartitionBy(d, "place", func(o opaque) int { return o.x }))
	}
	_, err := runDistCluster(t, 3, ClusterConfig{Workers: 2}, driver)
	var mce *MissingCodecError
	if !errors.As(err, &mce) {
		t.Fatalf("expected *MissingCodecError, got %v", err)
	}
}

// --- satellite: prompt cancellation of spill merges ---

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc fd table on %s: %v", runtime.GOOS, err)
	}
	return len(ents)
}

func TestSpillCancelMidMergeClosesReadersPromptly(t *testing.T) {
	const n, keys = 20000, 400
	input := spillPairs(n, keys)
	// Count total combines of a clean run, then cancel at the 75% mark: with
	// a 1KiB budget the in-memory maps flush near-constantly, so almost every
	// combine happens while the external merge drains its runs — the
	// cancellation lands inside the merge loops with thousands of heap pops
	// still ahead of it (the pollers check every cancelCheckEvery events).
	clean := NewContext(2, WithMemoryBudget(1<<10), WithSpillDir(t.TempDir()))
	var totalCombines atomic.Int64
	Collect(ReduceByKey(Parallelize(clean, "input", input), "sum", func(a, b int) int {
		totalCombines.Add(1)
		return a + b
	}))
	if err := clean.Err(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if clean.Stats().Metrics().Counter("dataflow.spill.runs").Value() == 0 {
		t.Fatal("workload did not spill; the test needs an external merge")
	}

	before := openFDs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	c := NewContext(2, WithCancel(ctx), WithMemoryBudget(1<<10), WithSpillDir(dir))
	cancelAt := totalCombines.Load() * 3 / 4
	var calls atomic.Int64
	start := time.Now()
	Collect(ReduceByKey(Parallelize(c, "input", input), "sum", func(a, b int) int {
		if calls.Add(1) == cancelAt {
			cancel()
		}
		return a + b
	}))
	err := c.Err()
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spill run returned %v, want context.Canceled in the chain", err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("cancelled merge took %v to abort", took)
	}
	// All merge readers and spill files must be closed: fd count back at the
	// baseline and no temp state left behind (spill files are unlinked at
	// creation, so anything remaining is a leak).
	if after := openFDs(t); after > before {
		t.Errorf("cancelled merge leaked file descriptors: %d -> %d", before, after)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("cancelled merge left %d entries in the spill dir", len(ents))
	}
}
