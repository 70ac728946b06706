package core

import "repro/internal/metrics"

// RunSnapshot is the machine-readable form of a run's statistics, ready for
// json.Marshal and emitted by cmd/rdfind -json. Each quantity appears once:
// the pipeline facts of RunStats, the engine's work totals, its trace spans
// (the per-stage record) and the counters only its registry holds (cluster
// events, shuffle bytes).
type RunSnapshot struct {
	Triples        int     `json:"triples"`
	FrequentUnary  int     `json:"frequent_unary"`
	FrequentBinary int     `json:"frequent_binary"`
	CaptureGroups  int     `json:"capture_groups"`
	BroadCINDs     int     `json:"broad_cinds"`
	Pertinent      int     `json:"pertinent"`
	ARs            int     `json:"ars"`
	WallMS         float64 `json:"wall_ms"`
	TotalWork      int64   `json:"total_work"`
	CriticalPath   int64   `json:"critical_path"`
	// StageRetries stays beside the spans' retries: a stage that failed for
	// good leaves no span to sum them from.
	StageRetries   int   `json:"stage_retries,omitempty"`
	ExtractionLoad int64 `json:"extraction_load,omitempty"`
	Degraded       bool  `json:"degraded,omitempty"`
	// Mallocs/AllocBytes are the run's process-wide allocation deltas
	// (RunStats.Mallocs/AllocBytes); zero on snapshots from before the
	// counters existed, so readers treat zero as "not measured".
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`

	Spans   []metrics.Span           `json:"spans,omitempty"`
	Metrics metrics.RegistrySnapshot `json:"metrics,omitzero"`
}

// Snapshot freezes the run statistics into their serializable form. The spans
// and registry are copied from the dataflow engine; a RunStats without an
// engine (hand-built in tests) yields empty trace fields.
func (s *RunStats) Snapshot() *RunSnapshot {
	snap := &RunSnapshot{
		Triples:        s.Triples,
		FrequentUnary:  s.FrequentUnary,
		FrequentBinary: s.FrequentBinary,
		CaptureGroups:  s.CaptureGroups,
		BroadCINDs:     s.BroadCINDs,
		Pertinent:      s.Pertinent,
		ARs:            s.ARs,
		WallMS:         float64(s.Duration.Nanoseconds()) / 1e6,
		StageRetries:   s.StageRetries,
		ExtractionLoad: s.ExtractionLoad,
		Degraded:       s.Degraded,
		Mallocs:        s.Mallocs,
		AllocBytes:     s.AllocBytes,
	}
	if s.Dataflow != nil {
		snap.TotalWork = s.Dataflow.TotalWork()
		snap.CriticalPath = s.Dataflow.CriticalPath()
		snap.Spans = s.Dataflow.Spans()
		snap.Metrics = s.Dataflow.Metrics().Snapshot()
	}
	return snap
}
