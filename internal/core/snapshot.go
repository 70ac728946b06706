package core

import "repro/internal/metrics"

// RunSnapshot is the machine-readable form of a run's statistics: the scalar
// counters of RunStats plus the engine's trace spans and metric registry,
// ready for json.Marshal. cmd/rdfind -json and the benchmark harness both
// emit it, so external tooling sees one schema.
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
	Speedup        float64 `json:"speedup"`
	StageRetries   int     `json:"stage_retries,omitempty"`
	ExtractionLoad int64   `json:"extraction_load,omitempty"`
	Degraded       bool    `json:"degraded,omitempty"`
	// Spill accounting (RunStats.SpillPlanned/SpilledBytes/SpilledRuns/
	// MergePasses); all zero when no memory budget was set or never exceeded.
	SpillPlanned bool  `json:"spill_planned,omitempty"`
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	SpilledRuns  int64 `json:"spilled_runs,omitempty"`
	MergePasses  int64 `json:"merge_passes,omitempty"`
	// MaterializedBytes estimates the bytes buffered into partition slices by
	// fused narrow-operator stages (RunStats.MaterializedBytes).
	MaterializedBytes int64 `json:"materialized_bytes,omitempty"`
	// Cluster fault accounting (RunStats.WorkerLosses/WorkerRespawns/
	// Reconnects); all zero in a single-process run.
	WorkerLosses   int64 `json:"worker_losses,omitempty"`
	WorkerRespawns int64 `json:"worker_respawns,omitempty"`
	Reconnects     int64 `json:"reconnects,omitempty"`
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
		Triples:           s.Triples,
		FrequentUnary:     s.FrequentUnary,
		FrequentBinary:    s.FrequentBinary,
		CaptureGroups:     s.CaptureGroups,
		BroadCINDs:        s.BroadCINDs,
		Pertinent:         s.Pertinent,
		ARs:               s.ARs,
		WallMS:            float64(s.Duration.Nanoseconds()) / 1e6,
		StageRetries:      s.StageRetries,
		ExtractionLoad:    s.ExtractionLoad,
		Degraded:          s.Degraded,
		SpillPlanned:      s.SpillPlanned,
		SpilledBytes:      s.SpilledBytes,
		SpilledRuns:       s.SpilledRuns,
		MergePasses:       s.MergePasses,
		MaterializedBytes: s.MaterializedBytes,
		WorkerLosses:      s.WorkerLosses,
		WorkerRespawns:    s.WorkerRespawns,
		Reconnects:        s.Reconnects,
		Mallocs:           s.Mallocs,
		AllocBytes:        s.AllocBytes,
		Speedup:           1,
	}
	if s.Dataflow != nil {
		snap.TotalWork = s.Dataflow.TotalWork()
		snap.CriticalPath = s.Dataflow.CriticalPath()
		snap.Speedup = s.Dataflow.Speedup()
		snap.Spans = s.Dataflow.Spans()
		snap.Metrics = s.Dataflow.Metrics().Snapshot()
	}
	return snap
}
