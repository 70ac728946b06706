package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/metrics"
)

// The batch-vs-record differential layer: columnar execution is a pure
// kernel change inside fused chains, so every suite here requires the
// rendered result — Format output, byte for byte — to be identical with
// columnar execution on and off, across seeds, variants, worker counts,
// injected faults, spilling, and distributed execution.

// TestPropertyDifferentialColumnarModes runs the property suite's
// seeded-random datasets through every pipeline variant with columnar
// execution on and off and requires byte-identical Format output (and deep
// equality of the results): the batch path must be indistinguishable from
// record-at-a-time execution at the result boundary.
func TestPropertyDifferentialColumnarModes(t *testing.T) {
	// The comparison is batch-vs-record inside fused chains, so the baseline
	// must actually fuse and batch regardless of the process-wide defaults
	// (CI runs DATAFLOW_FUSION=off and DATAFLOW_COLUMNAR=off legs).
	t.Setenv("DATAFLOW_FUSION", "on")
	t.Setenv("DATAFLOW_COLUMNAR", "on")
	seeds := 200
	if testing.Short() || raceDetectorEnabled {
		seeds = 30
	}
	variants := []Variant{Standard, DirectExtraction, NoFrequentConditions, MinimalFirst}
	for seed := 0; seed < seeds; seed++ {
		ds := datagen.Random(int64(seed))
		h := 1 + seed%4
		for _, w := range []int{1, 2, 4} {
			for _, v := range variants {
				cfg := Config{Support: h, Workers: w, Variant: v}
				batch, batchStats := Discover(ds, cfg)
				cfg.DisableColumnar = true
				rec, recStats := Discover(ds, cfg)
				label := fmt.Sprintf("seed=%d h=%d %v w=%d", seed, h, v, w)
				if got, want := batch.Format(ds.Dict), rec.Format(ds.Dict); got != want {
					t.Fatalf("%s: columnar and record Format output differ\ncolumnar: %s\nrecord:   %s", label, got, want)
				}
				if !reflect.DeepEqual(batch, rec) {
					t.Fatalf("%s: columnar and record results differ\ncolumnar: %+v\nrecord:   %+v", label, batch, rec)
				}
				// The batch path actually ran (and only there): batch
				// accounting is the one permitted stats difference.
				if batchStats.Batches == 0 {
					t.Fatalf("%s: columnar run recorded no batches", label)
				}
				if recStats.Batches != 0 {
					t.Fatalf("%s: record-path run recorded %d batches", label, recStats.Batches)
				}
			}
		}
	}
}

// spanSummary reduces a trace to the fields both execution modes must agree
// on: names, record counts, and per-fused-op attribution.
func spanSummary(spans []metrics.Span) []string {
	var out []string
	for _, sp := range spans {
		line := fmt.Sprintf("%s in=%d out=%d", sp.Name, sp.RecordsIn, sp.RecordsOut)
		for _, op := range sp.FusedOps {
			line += fmt.Sprintf(" %s=%d", op.Name, op.RecordsIn)
		}
		out = append(out, line)
	}
	return out
}

// TestDifferentialColumnarFaultReplay injects transient faults at the
// columnar pipeline's composite fused spans and checks the three retry
// promises: the fault sites (span names) are exactly the record path's, the
// faulted columnar run is byte-identical to a fault-free record-path run,
// and the replayed chains' per-op tallies and batch counts reflect one clean
// pass (reset on retry, matching the fault-free columnar trace).
func TestDifferentialColumnarFaultReplay(t *testing.T) {
	t.Setenv("DATAFLOW_FUSION", "on")
	t.Setenv("DATAFLOW_COLUMNAR", "on")
	for seed := 0; seed < 8; seed++ {
		ds := datagen.Random(int64(seed))
		h := 1 + seed%3
		base := Config{Support: h, Workers: 2}

		// Trace a fault-free columnar run to find its composite-chain sites.
		tracer := dataflow.NewFaultPlan()
		cfgTrace := base
		cfgTrace.FaultPlan = tracer
		want, wantStats := Discover(ds, cfgTrace)

		var faults []dataflow.Fault
		seen := map[string]bool{}
		for _, site := range tracer.Trace() {
			if site.Occurrence != 1 || !strings.Contains(site.Stage, "+") || seen[site.Stage] {
				continue
			}
			seen[site.Stage] = true
			faults = append(faults, dataflow.Fault{
				Stage:  site.Stage,
				Worker: site.Worker,
				Kind:   dataflow.FaultTransient,
			})
		}
		if len(faults) == 0 {
			t.Fatalf("seed=%d: columnar pipeline exposed no composite-chain fault sites", seed)
		}

		cfgFault := base
		cfgFault.FaultPlan = dataflow.NewFaultPlan(faults...)
		cfgFault.MaxStageAttempts = 3
		got, stats := Discover(ds, cfgFault)
		if fired := cfgFault.FaultPlan.Fired(); len(fired) != len(faults) {
			t.Fatalf("seed=%d: %d of %d composite-site faults fired", seed, len(fired), len(faults))
		}
		if stats.StageRetries == 0 {
			t.Errorf("seed=%d: no stage retries recorded despite injected faults", seed)
		}
		// Per-attempt tallies and batch counts reset on replay: aside from
		// the Retries field, the faulted trace matches the fault-free one.
		if !reflect.DeepEqual(spanSummary(stats.Dataflow.Spans()), spanSummary(wantStats.Dataflow.Spans())) {
			t.Errorf("seed=%d: faulted columnar trace diverged from fault-free trace", seed)
		}

		// The faulted columnar run matches a fault-free record-path run byte
		// for byte, and its span names are unchanged by columnar execution.
		cfgRec := base
		cfgRec.DisableColumnar = true
		rec, recStats := Discover(ds, cfgRec)
		if gotF, wantF := got.Format(ds.Dict), rec.Format(ds.Dict); gotF != wantF {
			t.Errorf("seed=%d: faulted columnar run diverged from record-path result", seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed=%d: faulted columnar run diverged from fault-free result", seed)
		}
		if !reflect.DeepEqual(spanSummary(stats.Dataflow.Spans()), spanSummary(recStats.Dataflow.Spans())) {
			t.Errorf("seed=%d: span accounting differs between columnar and record execution", seed)
		}
	}
}

// TestSpillDifferentialColumnar drives columnar batches through the PairCodec
// spill path: with a 1-byte budget every keyed stage spills, and the output
// of a budgeted columnar run must be byte-identical both to a budgeted
// record-path run and to an unbudgeted one — the spilled bytes a batch-fed
// stage encodes are the same bytes the record path encodes.
func TestSpillDifferentialColumnar(t *testing.T) {
	t.Setenv("DATAFLOW_FUSION", "on")
	t.Setenv("DATAFLOW_COLUMNAR", "on")
	ds := skewedDataset(400, 7) // large enough for every worker of three to spill
	for _, v := range []Variant{Standard, NoFrequentConditions} {
		for _, w := range []int{1, 3} {
			label := fmt.Sprintf("%v w=%d", v, w)
			base := Config{Support: 2, Workers: w, Variant: v}
			plain, _, err := TryDiscover(ds, base)
			if err != nil {
				t.Fatalf("%s unbudgeted: %v", label, err)
			}
			want := plain.Format(ds.Dict)
			for _, columnar := range []bool{true, false} {
				cfg := base
				cfg.MemoryBudget = 1
				cfg.SpillDir = t.TempDir()
				cfg.DisableColumnar = !columnar
				got, stats, err := TryDiscover(ds, cfg)
				if err != nil {
					t.Fatalf("%s columnar=%v budgeted: %v", label, columnar, err)
				}
				if gotF := got.Format(ds.Dict); gotF != want {
					t.Errorf("%s columnar=%v: budgeted output diverged (%d vs %d bytes)",
						label, columnar, len(gotF), len(want))
				}
				if stats.SpilledBytes == 0 || stats.SpilledRuns == 0 {
					t.Errorf("%s columnar=%v: 1-byte budget spilled nothing", label, columnar)
				}
			}
		}
	}
}

// TestDistributedColumnarParity sends columnar-fed collective frames through
// the in-process cluster harness: distributed runs with columnar execution on
// and off must both match the single-process result byte for byte, and a
// worker killed mid-pipeline must recover through lineage replay to the same
// bytes with its loss accounted.
func TestDistributedColumnarParity(t *testing.T) {
	t.Setenv("DATAFLOW_FUSION", "on")
	t.Setenv("DATAFLOW_COLUMNAR", "on")
	ds := skewedDataset(500, 17)
	single, _ := Discover(ds, Config{Support: 2, Workers: 2})
	want := single.Format(ds.Dict)

	for _, columnar := range []bool{true, false} {
		cfg := Config{Support: 2, DisableColumnar: !columnar}
		res, stats := runDistributed(t, ds, cfg, 2, nil)
		if got := res.Format(ds.Dict); got != want {
			t.Errorf("columnar=%v: distributed output diverged from single-process (%d vs %d bytes)",
				columnar, len(got), len(want))
		}
		if stats.WorkerLosses != 0 {
			t.Errorf("columnar=%v: fault-free run recorded %d losses", columnar, stats.WorkerLosses)
		}
	}

	// Kill-recovery under columnar execution: retry-from-retained-partitions
	// replays batched chains, and the recovered bytes must not move.
	faults := []dataflow.ProcFault{{Seq: 4, Rank: 1, Kind: dataflow.ProcKill}}
	res, stats := runDistributed(t, ds, Config{Support: 2}, 2, faults)
	if got := res.Format(ds.Dict); got != want {
		t.Errorf("post-recovery columnar output diverged from single-process (%d vs %d bytes)",
			len(got), len(want))
	}
	if stats.WorkerLosses != 1 || stats.WorkerRespawns != 1 {
		t.Errorf("loss accounting: losses=%d respawns=%d, want 1/1", stats.WorkerLosses, stats.WorkerRespawns)
	}
}
