package dataflow

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// This file threads per-stage tracing through the engine. Every operator
// opens an activeSpan when it starts and closes it with its work accounting,
// producing one metrics.Span per logical operator execution (sub-phases like
// "/combine" or "/scatter" fold into their operator's span; a cluster
// respawn at one of them counts as a retry of that span, by name prefix).
// Stats.TotalWork and CriticalPath are sums over these spans, so the trace
// and the work accounting cannot disagree.

// memSampleEvery bounds how often a stage pays for runtime.ReadMemStats (a
// stop-the-world sample, taken once at begin and once at finish so the span
// can report allocation deltas): the first stage and every memSampleEvery-th
// thereafter. Goroutine counts are cheap and sampled on every stage.
const memSampleEvery = 4

// activeSpan is an operator span under construction.
type activeSpan struct {
	name         string
	start        time.Time
	shuffleBytes int64
	combinerIn   int64
	combinerOut  int64
	// memSampled marks spans selected for the runtime.ReadMemStats probe;
	// startMallocs/startAllocBytes hold the probe's baseline so finish can
	// report the stage's allocation deltas.
	memSampled      bool
	startMallocs    uint64
	startAllocBytes uint64
	// fusedOps attributes a fused chain's per-operator record counts (only
	// set for chains of length > 1; single-op stages keep plain spans).
	fusedOps []metrics.FusedOp
	// materializedBytes estimates the output partitions a narrow stage (or
	// fused chain) wrote.
	materializedBytes int64
	// Spill accounting, written concurrently by the workers of a budgeted
	// keyed operator (see spill.go), hence atomic.
	spilledBytes atomic.Int64
	spilledRuns  atomic.Int64
	mergePasses  atomic.Int64
}

// begin opens a span for one operator execution. The memory-probe decision is
// made here (every operator consumes exactly one sequence number, so the
// sampled set is the same as when finish decided) because allocation deltas
// need a baseline before any stage work runs; the wall clock starts after the
// probe so its stop-the-world cost is not billed to the stage.
func (c *Context) begin(name string) *activeSpan {
	sp := &activeSpan{name: name}
	if c.stats.stageSeq()%memSampleEvery == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sp.memSampled = true
		sp.startMallocs = ms.Mallocs
		sp.startAllocBytes = ms.TotalAlloc
	}
	sp.start = time.Now()
	return sp
}

// finish closes the span with the operator's per-worker input counts and its
// output record count and records it: the span is the stage's work
// accounting and its trace at once.
func (c *Context) finish(sp *activeSpan, perWorker []int64, recordsOut int64) {
	wall := time.Since(sp.start)
	var in, max int64
	for _, n := range perWorker {
		in += n
		if n > max {
			max = n
		}
	}
	span := metrics.Span{
		Name:              sp.name,
		StartMS:           float64(sp.start.Sub(c.epoch).Nanoseconds()) / 1e6,
		WallMS:            float64(wall.Nanoseconds()) / 1e6,
		RecordsIn:         in,
		RecordsOut:        recordsOut,
		MaxWorkerRecords:  max,
		PerWorker:         append([]int64(nil), perWorker...),
		FusedOps:          sp.fusedOps,
		ShuffleBytes:      sp.shuffleBytes,
		CombinerIn:        sp.combinerIn,
		CombinerOut:       sp.combinerOut,
		MaterializedBytes: sp.materializedBytes,
		SpilledBytes:      sp.spilledBytes.Load(),
		SpilledRuns:       sp.spilledRuns.Load(),
		MergePasses:       sp.mergePasses.Load(),
		Retries:           c.stats.retriesFor(sp.name),
		Goroutines:        runtime.NumGoroutine(),
	}
	if sp.memSampled {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		span.HeapAllocBytes = ms.HeapAlloc
		span.MallocsDelta = ms.Mallocs - sp.startMallocs
		span.AllocBytesDelta = ms.TotalAlloc - sp.startAllocBytes
	}
	// The benchmark harness reads the job-wide shuffle and spill totals from
	// the registry; every other per-stage figure lives in the span alone.
	reg := c.stats.Metrics()
	if sp.shuffleBytes > 0 {
		reg.Counter("dataflow.shuffle.bytes").Add(sp.shuffleBytes)
	}
	if span.SpilledBytes > 0 {
		reg.Counter("dataflow.spill.bytes").Add(span.SpilledBytes)
	}
	if span.SpilledRuns > 0 {
		reg.Counter("dataflow.spill.runs").Add(span.SpilledRuns)
	}
	if span.MergePasses > 0 {
		reg.Counter("dataflow.spill.merge_passes").Add(span.MergePasses)
	}
	c.stats.endStage(span)
}

// partLens returns the per-worker partition lengths.
func partLens[T any](parts [][]T) []int64 {
	lens := make([]int64, len(parts))
	for w, p := range parts {
		lens[w] = int64(len(p))
	}
	return lens
}

// totalLen sums the partition lengths of an operator's output.
func totalLen[T any](parts [][]T) int64 {
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// sumCounts adds up per-worker counts.
func sumCounts(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// estimateMaterializedBytes estimates the bytes a narrow stage's output
// partitions occupy, one sample record per partition extrapolated like the
// shuffle estimate below. Fused chains materialize only their final output.
func estimateMaterializedBytes[T any](parts [][]T) int64 {
	var total int64
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		total += metrics.EstimateSize(p[0]) * int64(len(p))
	}
	return total
}

// fusedOpCounts folds the per-worker chain tallies into one per-operator
// input-record count each, in chain order.
func fusedOpCounts(ops []string, tallies [][]int64) []metrics.FusedOp {
	out := make([]metrics.FusedOp, len(ops))
	for i, name := range ops {
		out[i].Name = name
	}
	for _, tally := range tallies {
		for i, n := range tally {
			out[i].RecordsIn += n
		}
	}
	return out
}

// estimateCrossingBytes estimates the bytes a shuffle moved across
// partitions: for each source partition, the width of one sample record is
// extrapolated over the records that landed on a different worker. On a
// single worker nothing crosses and the estimate is zero.
func estimateCrossingBytes[T any](parts [][]T, crossing []int64) int64 {
	var total int64
	for w, part := range parts {
		if len(part) == 0 || crossing[w] == 0 {
			continue
		}
		total += metrics.EstimateSize(part[0]) * crossing[w]
	}
	return total
}
