// Package core orchestrates the full RDFind pipeline (Fig. 3): FCDetector →
// CGCreator → CINDExtractor, on top of the dataflow engine. It also provides
// the pipeline variants evaluated in §8.5 and §8.6 — RDFind-DE (direct
// extraction), RDFind-NF (no frequent-condition pruning), and the
// minimal-first strategy — which trade performance but, up to the documented
// AR differences of NF, compute the same pertinent CINDs.
package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/extract"
	"repro/internal/fcdetect"
	"repro/internal/metrics"
	"repro/internal/rdf"
	"repro/internal/source"
)

// Variant selects a pipeline strategy.
type Variant int

const (
	// Standard is the full RDFind pipeline: lazy pruning in two phases,
	// load balancing, and approximate-validate extraction.
	Standard Variant = iota
	// DirectExtraction (RDFind-DE) skips capture-support pruning, load
	// balancing, and the Bloom-filter candidate encoding (§7.1, §8.5).
	DirectExtraction
	// NoFrequentConditions (RDFind-NF) additionally waives everything
	// related to frequent conditions: all conditions count as frequent and
	// no association rules are derived, so AR-implied CINDs appear as plain
	// CINDs in the result (§8.5).
	NoFrequentConditions
	// MinimalFirst extracts minimal CINDs directly in multiple passes over
	// the capture groups instead of minimizing the broad set afterwards
	// (§8.6; shown there to be up to 3× slower than even RDFind-DE).
	MinimalFirst
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case Standard:
		return "RDFind"
	case DirectExtraction:
		return "RDFind-DE"
	case NoFrequentConditions:
		return "RDFind-NF"
	case MinimalFirst:
		return "RDFind-MF"
	}
	return "unknown"
}

// Config parameterizes a discovery run.
type Config struct {
	// Support is the broadness threshold h (Definition 3.1). Values below 1
	// are treated as 1.
	Support int
	// Workers is the logical worker count of the dataflow engine; 0 selects
	// one worker.
	Workers int
	// Variant selects the pipeline strategy; the zero value is the full
	// RDFind pipeline.
	Variant Variant
	// PredicatesOnlyInConditions uses the predicate element only inside
	// conditions, never as a projection attribute (the Freebase experiment
	// of §8.3).
	PredicatesOnlyInConditions bool
	// BloomBytes sizes candidate-set Bloom filters; 0 selects the paper's
	// 64 bytes.
	BloomBytes int
	// LoadLimit caps the estimated extraction load (candidate-set entries);
	// 0 means unlimited. A bounded run that would exceed it first degrades
	// to Bloom work-unit candidate sets (linear instead of quadratic load,
	// reported in RunStats.Degraded) and only fails with extract.ErrLoadLimit
	// if even the degraded load exceeds the limit — use TryDiscover or
	// DiscoverContext to observe the error. RDFind-DE and RDFind-NF never
	// degrade: the paper defines direct extraction as exact-only, and its
	// memory failures are the point of Fig. 13.
	LoadLimit int64
	// Cluster makes this run the coordinator of a multi-process job: stages
	// execute on the cluster's worker processes and this driver consumes the
	// collective results. Overrides Workers with the cluster's worker count.
	// Mutually exclusive with WorkerConn.
	Cluster *dataflow.Cluster
	// WorkerConn makes this run one worker rank of a multi-process job: the
	// driver replays the same pipeline as the coordinator but executes only
	// its rank's partition of every stage. Worker count and injected fault
	// schedules come from the coordinator's welcome.
	WorkerConn *dataflow.WorkerConn
}

func (c Config) normalized() Config {
	if c.Support < 1 {
		c.Support = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	// Distributed runs take their worker count from the cluster.
	if c.Cluster != nil {
		c.Workers = c.Cluster.Workers()
	}
	if c.WorkerConn != nil {
		c.Workers = c.WorkerConn.Workers()
	}
	return c
}

// RunStats reports what a run did, for the experiment harness. It is the one
// record of the run's pipeline facts; per-stage engine facts live in
// Dataflow's spans only. On a failed or cancelled run the fields filled in
// before the abort are still valid, so callers get a partial-progress report
// next to the error.
type RunStats struct {
	Triples        int
	FrequentUnary  int
	FrequentBinary int
	CaptureGroups  int
	BroadCINDs     int
	Pertinent      int
	ARs            int
	Duration       time.Duration
	Dataflow       *dataflow.Stats
	// ExtractionLoad is the estimated candidate-set entries of the executed
	// extraction strategy (summed over the minimal-first passes).
	ExtractionLoad int64
	// Degraded reports that a LoadLimit breach was absorbed by re-planning
	// extraction with Bloom work-unit candidate sets instead of failing.
	Degraded bool
	// WorkerLosses and WorkerRespawns report the distributed engine's fault
	// handling: worker processes declared lost (broken connection, heartbeat
	// deadline, or injected kill or drop) and replacement processes spawned.
	// Both zero in a single-process run. They are the typed view of the
	// registry's metrics.Cluster* counters that rdfind -stats prints;
	// RunSnapshot carries the counters themselves.
	WorkerLosses   int64
	WorkerRespawns int64
	// Mallocs and AllocBytes are the process-wide allocation deltas
	// (runtime.MemStats Mallocs and TotalAlloc) across the run — the
	// whole-pipeline counterpart of the per-span deltas, letting the
	// benchmark harness gate on allocation counts next to wall time.
	Mallocs    uint64
	AllocBytes uint64
	// Ingest reports the streaming-source ingest of a DiscoverSource run;
	// nil on in-memory (Discover/TryDiscover/DiscoverContext) runs.
	Ingest *IngestStats
}

// IngestStats accounts a streamed-source ingest (DiscoverSource).
type IngestStats struct {
	// Files is the number of resolved input files.
	Files int
	// PerRank[r] is the number of triples worker rank r streamed from its
	// assigned input files (cluster mode), or the length of logical
	// partition r of the resident dataset (single-process).
	PerRank []int64
	// LocalTriples counts the triples this process materialized at the
	// ingest root: the full input single-process, this rank's files on a
	// worker, and always 0 on a cluster coordinator — the accounting behind
	// the coordinator-never-holds-the-dataset guarantee.
	LocalTriples int64
	// ShuffleBytes is the placement shuffle's wire volume (cluster mode;
	// 0 single-process, where the resident dataset is split in memory).
	ShuffleBytes int64
	// Skipped lists lenient-mode malformed lines with their files
	// (single-process only); SkippedLines is the cluster-wide count and is
	// also set single-process.
	Skipped      []source.Malformed
	SkippedLines int64
	// Distributed reports a multi-process ingest; Rank is this process's
	// worker rank in it (-1 on the coordinator).
	Distributed bool
	Rank        int
}

// Discover runs the selected pipeline over the dataset and returns the
// pertinent CINDs and association rules, plus run statistics. It panics on
// any error (an exceeded LoadLimit, a panic in a stage); use TryDiscover or
// DiscoverContext to observe errors instead.
func Discover(ds *rdf.Dataset, cfg Config) (*cind.Result, *RunStats) {
	res, stats, err := TryDiscover(ds, cfg)
	if err != nil {
		panic("core: " + err.Error() + " (use TryDiscover to observe errors)")
	}
	return res, stats
}

// TryDiscover is Discover with errors surfaced: an exceeded LoadLimit ends
// the run with extract.ErrLoadLimit (after the degradation attempt) and
// partial statistics, and a terminal stage failure surfaces as a
// *dataflow.StageError.
func TryDiscover(ds *rdf.Dataset, cfg Config) (*cind.Result, *RunStats, error) {
	return DiscoverContext(context.Background(), ds, cfg)
}

// DiscoverContext is TryDiscover under a cancellation context: the pipeline
// checks ctx before every stage and aborts promptly when it is cancelled or
// times out, returning partial statistics and an error wrapping ctx.Err().
// A panic in a stage fails the run at once with a *dataflow.StageError.
func DiscoverContext(ctx context.Context, ds *rdf.Dataset, cfg Config) (*cind.Result, *RunStats, error) {
	cfg = cfg.normalized()
	h := newHarness(ctx, cfg)
	h.stats.Triples = ds.Size()
	triples := dataflow.Parallelize(h.dfctx, "input", ds.Triples)
	return h.run(triples, ds.Dict)
}

// harness is the shared run scaffolding of DiscoverContext and
// DiscoverSource: the configured dataflow context and run statistics with
// their collection closures. It exists so the two ingest roots — a resident
// Dataset parallelized in memory, and a streamed Source folded on one
// process or across a cluster's ranks — drive one and the same pipeline
// body.
type harness struct {
	ctx      context.Context
	cfg      Config
	dfctx    *dataflow.Context
	stats    *RunStats
	start    time.Time
	memStart runtime.MemStats
}

// newHarness builds the dataflow context and stats plumbing for one run.
// cfg must already be normalized.
func newHarness(ctx context.Context, cfg Config) *harness {
	if ctx == nil {
		ctx = context.Background()
	}
	h := &harness{ctx: ctx, cfg: cfg}
	runtime.ReadMemStats(&h.memStart)
	h.start = time.Now()
	dfOpts := []dataflow.Option{dataflow.WithCancel(ctx)}
	if cfg.Cluster != nil {
		dfOpts = append(dfOpts, dataflow.WithCluster(cfg.Cluster))
	}
	if cfg.WorkerConn != nil {
		dfOpts = append(dfOpts, dataflow.WithWorkerConn(cfg.WorkerConn))
	}
	h.dfctx = dataflow.NewContext(cfg.Workers, dfOpts...)
	h.stats = &RunStats{Dataflow: h.dfctx.Stats()}
	return h
}

// phase labels this goroutine, and the stage goroutines it starts from here
// on, with the pipeline phase that begins, so that a CPU profile taken around
// the run (rdfind -cpuprofile) splits by phase: go tool pprof -tagfocus
// phase=capture. It costs one small allocation per phase, profiled or not.
func (h *harness) phase(name string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(h.ctx, pprof.Labels("phase", name)))
}

func (h *harness) recordAllocs() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.stats.Mallocs = ms.Mallocs - h.memStart.Mallocs
	h.stats.AllocBytes = ms.TotalAlloc - h.memStart.TotalAlloc
}

func (h *harness) recordCounters() {
	// Read through a snapshot so a run does not materialize zero-valued
	// counters in the registry.
	counters := h.dfctx.Stats().Metrics().Snapshot().Counters
	h.stats.WorkerLosses = counters[metrics.ClusterLosses]
	h.stats.WorkerRespawns = counters[metrics.ClusterRespawns]
}

// finish closes the stats out on an aborted run.
func (h *harness) finish(err error) (*cind.Result, *RunStats, error) {
	h.stats.Duration = time.Since(h.start)
	h.recordAllocs()
	h.recordCounters()
	return nil, h.stats, err
}

// run executes the pipeline proper — FCDetector → CGCreator → CINDExtractor
// — over an already-rooted triple dataset. dict is the global dictionary the
// triples are encoded against, used only to canonicalize the result order.
func (h *harness) run(triples *dataflow.Dataset[rdf.Triple], dict *rdf.Dictionary) (*cind.Result, *RunStats, error) {
	cfg, dfctx, stats := h.cfg, h.dfctx, h.stats
	fcOpts := fcdetect.Options{PredicatesOnlyInConditions: cfg.PredicatesOnlyInConditions}
	defer pprof.SetGoroutineLabels(h.ctx) // back to the caller's labels
	h.phase("fcdetect")

	// Phase 1 of lazy pruning: frequent conditions and association rules.
	// RDFind-NF waives it by running the same detector at threshold 1, where
	// every condition that occurs is frequent, and dropping the rules, which
	// also switches off their suppression of binary captures.
	var fc *fcdetect.Output
	if cfg.Variant == NoFrequentConditions {
		fc = fcdetect.Detect(triples, 1, fcOpts)
		fc.ARs = nil
	} else {
		fc = fcdetect.Detect(triples, cfg.Support, fcOpts)
		stats.FrequentUnary = fc.Unary.Len()
		stats.FrequentBinary = fc.Binary.Len()
	}
	if err := dfctx.Err(); err != nil {
		return h.finish(err)
	}

	// Capture groups (§6).
	h.phase("capture")
	groups := capture.BuildGroups(triples, fc, fcOpts)
	stats.CaptureGroups = groups.Len()
	if err := dfctx.Err(); err != nil {
		return h.finish(err)
	}

	h.phase("extract")
	// CIND extraction (§7). A LoadLimit breach degrades to Bloom work-unit
	// candidate sets unless the variant is defined as exact-only.
	ecfg := extract.Config{
		Support:            cfg.Support,
		DirectExtraction:   cfg.Variant == DirectExtraction || cfg.Variant == NoFrequentConditions,
		BloomBytes:         cfg.BloomBytes,
		LoadLimit:          cfg.LoadLimit,
		DegradeOnLoadLimit: true,
	}
	var pertinent []cind.CIND
	if cfg.Variant == MinimalFirst {
		mf, outcome, err := minimalFirst(groups, ecfg)
		stats.ExtractionLoad = outcome.EstimatedLoad
		stats.Degraded = outcome.Degraded
		if err != nil {
			return h.finish(err)
		}
		pertinent = mf
		stats.BroadCINDs = len(pertinent) // broad set never materialized
	} else {
		broad, outcome, err := extract.BroadCINDsOutcome(groups, ecfg)
		stats.ExtractionLoad = outcome.EstimatedLoad
		stats.Degraded = outcome.Degraded
		if err != nil {
			return h.finish(err)
		}
		stats.BroadCINDs = len(broad)
		h.phase("consolidate")
		pertinent = extract.Minimize(broad)
	}
	if err := dfctx.Err(); err != nil {
		return h.finish(err)
	}

	h.phase("consolidate")
	res := &cind.Result{CINDs: pertinent, ARs: fc.ARs}
	res.Sort(dict)
	stats.Pertinent = len(res.CINDs)
	stats.ARs = len(res.ARs)
	stats.Duration = time.Since(h.start)
	h.recordAllocs()
	h.recordCounters()
	return res, stats, nil
}
