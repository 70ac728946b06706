package dataflow

import (
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Stats accumulates per-stage, per-worker work accounting. Each operator
// records one metrics.Span holding how many input records every worker
// processed; the spans are the only per-stage record of a job, and the work
// totals below are sums over them. On a cluster, a stage finishes when its
// most loaded worker finishes, so the critical-path cost of a job is the sum
// of per-stage maxima; the ratio of total work to that critical path is the
// speedup a w-worker deployment can realize. The scale-out experiment
// (Fig. 9) reports this quantity next to wall-clock time, because on the
// single-core reproduction machine goroutine parallelism cannot manifest as
// elapsed-time speedup.
type Stats struct {
	mu       sync.Mutex
	retries  map[string]int
	spans    []metrics.Span
	seq      int
	registry *metrics.Registry
}

// endStage appends one operator's trace span.
func (s *Stats) endStage(sp metrics.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, sp)
}

// stageSeq returns a monotonically increasing stage sequence number, used to
// subsample the expensive memory probe.
func (s *Stats) stageSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.seq
	s.seq++
	return n
}

// retriesFor sums the respawns attributed to one operator: the operator's
// own stage name plus its '/'-suffixed sub-phases (combine, scatter, gather,
// reduce, …).
func (s *Stats) retriesFor(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for k, v := range s.retries {
		if k == name || strings.HasPrefix(k, name+"/") {
			total += v
		}
	}
	return total
}

// Spans returns a copy of the per-operator trace spans in execution order.
func (s *Stats) Spans() []metrics.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]metrics.Span, len(s.spans))
	copy(out, s.spans)
	return out
}

// SpanTree renders the trace as a human-readable tree grouped by the
// '/'-separated stage-name segments.
func (s *Stats) SpanTree() string {
	var b strings.Builder
	if err := metrics.WriteSpanTree(&b, s.Spans()); err != nil {
		return err.Error()
	}
	return b.String()
}

// Metrics returns the job's counter registry: the cluster's process events
// (metrics.Cluster*) and the shuffle and spill byte totals the benchmark
// harness reads. Everything else a job records lives in its spans. Lazily
// created so a zero Stats works.
func (s *Stats) Metrics() *metrics.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.registry == nil {
		s.registry = metrics.NewRegistry()
	}
	return s.registry
}

// recordRetry attributes one re-execution to a stage: a lost cluster rank
// respawned and replayed from the frontier stage (cluster.go).
func (s *Stats) recordRetry(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retries == nil {
		s.retries = make(map[string]int)
	}
	s.retries[name]++
}

// TotalWork is the sum of all records processed by all workers in all stages.
func (s *Stats) TotalWork() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, sp := range s.spans {
		total += sp.RecordsIn
	}
	return total
}

// CriticalPath is the sum over stages of the most loaded worker's record
// count — the work a w-worker cluster cannot parallelize below.
func (s *Stats) CriticalPath() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, sp := range s.spans {
		total += sp.MaxWorkerRecords
	}
	return total
}

// Speedup is the work-balance speedup TotalWork / CriticalPath. It is 1 for
// a single worker and approaches the worker count under perfect balance.
func (s *Stats) Speedup() float64 {
	cp := s.CriticalPath()
	if cp == 0 {
		return 1
	}
	return float64(s.TotalWork()) / float64(cp)
}
