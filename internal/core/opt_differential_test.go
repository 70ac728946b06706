package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflow/opt"
	"repro/internal/datagen"
)

// The optimizer differential layer: the cost-based planner rewrites plans
// (shared-prefix materialization, pushdown through shuffles) and picks
// execution policies (serial stages, combiner skip, spill bypass), but every
// suite here requires the rendered result — Format output, byte for byte —
// to be identical with the optimizer on and off, across seeds, variants,
// worker counts, injected faults, spilling, and warm profiles.

// TestPropertyDifferentialOptimizerModes runs the property suite's
// seeded-random datasets through every pipeline variant with the optimizer
// on and off and requires byte-identical Format output (and deep equality of
// the results): rewrites and policies must be invisible at the result
// boundary.
func TestPropertyDifferentialOptimizerModes(t *testing.T) {
	// The baseline must actually optimize regardless of the process-wide
	// defaults (CI runs a DATAFLOW_OPTIMIZER=off leg).
	t.Setenv("DATAFLOW_OPTIMIZER", "on")
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
				on, onStats := Discover(ds, cfg)
				cfg.DisableOptimizer = true
				off, offStats := Discover(ds, cfg)
				label := fmt.Sprintf("seed=%d h=%d %v w=%d", seed, h, v, w)
				if got, want := on.Format(ds.Dict), off.Format(ds.Dict); got != want {
					t.Fatalf("%s: optimized and unoptimized Format output differ\noptimized:   %s\nunoptimized: %s", label, got, want)
				}
				if !reflect.DeepEqual(on, off) {
					t.Fatalf("%s: optimized and unoptimized results differ\noptimized:   %+v\nunoptimized: %+v", label, on, off)
				}
				// The planner actually ran (and only there): the optimizer
				// report is the one permitted stats difference.
				if onStats.Optimizer == nil || !onStats.Optimizer.Enabled {
					t.Fatalf("%s: optimized run carries no optimizer report", label)
				}
				if offStats.Optimizer != nil {
					t.Fatalf("%s: optimizer-off run carries an optimizer report", label)
				}
			}
		}
	}
}

// TestDifferentialOptimizerFaultReplay injects transient faults at the
// optimized pipeline's composite fused spans — the spans the shared-prefix
// rewrite creates — and checks that fault sites survive plan rewrites: the
// sites traced on a fault-free optimized run are injectable, the faults fire
// and are retried with attribution, and the faulted optimized run is
// byte-identical both to the fault-free optimized run and to an
// optimizer-off run.
func TestDifferentialOptimizerFaultReplay(t *testing.T) {
	// Composite fault sites and the shared-prefix rewrite only exist on
	// fused chains; pin against the CI leg that sets DATAFLOW_FUSION=off.
	t.Setenv("DATAFLOW_FUSION", "on")
	t.Setenv("DATAFLOW_OPTIMIZER", "on")
	for seed := 0; seed < 8; seed++ {
		ds := datagen.Random(int64(seed))
		h := 1 + seed%3
		base := Config{Support: h, Workers: 2}

		// Trace a fault-free optimized run to find its composite-chain sites.
		tracer := dataflow.NewFaultPlan()
		cfgTrace := base
		cfgTrace.FaultPlan = tracer
		want, wantStats := Discover(ds, cfgTrace)
		if wantStats.Optimizer == nil || !wantStats.Optimizer.Enabled {
			t.Fatalf("seed=%d: traced run was not optimized", seed)
		}

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
			t.Fatalf("seed=%d: optimized pipeline exposed no composite-chain fault sites", seed)
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
		// Per-attempt tallies reset on replay: aside from the Retries field,
		// the faulted optimized trace matches the fault-free optimized one.
		if !reflect.DeepEqual(spanSummary(stats.Dataflow.Spans()), spanSummary(wantStats.Dataflow.Spans())) {
			t.Errorf("seed=%d: faulted optimized trace diverged from fault-free trace", seed)
		}

		// The faulted optimized run matches both the fault-free optimized
		// result and an optimizer-off run byte for byte. (Span traces are NOT
		// compared across the optimizer axis: rewrites legitimately move work
		// between spans; results may not move.)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed=%d: faulted optimized run diverged from fault-free result", seed)
		}
		cfgOff := base
		cfgOff.DisableOptimizer = true
		off, _ := Discover(ds, cfgOff)
		if gotF, wantF := got.Format(ds.Dict), off.Format(ds.Dict); gotF != wantF {
			t.Errorf("seed=%d: faulted optimized run diverged from optimizer-off result", seed)
		}
	}
}

// TestOptimizerWarmProfileDifferential exercises the self-tuning loop: a
// first run records observations into a shared profile, a second run plans
// against them (profile-tuned model, first-consumer materialization, policy
// rules armed) — and the warm run's output must still be byte-identical to
// an optimizer-off run. The on-disk round trip through ProfileDir is checked
// the same way.
func TestOptimizerWarmProfileDifferential(t *testing.T) {
	// The shared-prefix rule rewrites fused chains; pin against the CI leg
	// that sets DATAFLOW_FUSION=off.
	t.Setenv("DATAFLOW_FUSION", "on")
	t.Setenv("DATAFLOW_OPTIMIZER", "on")
	ds := datagen.Random(42)
	base := Config{Support: 2, Workers: 2}
	off := base
	off.DisableOptimizer = true
	plain, _ := Discover(ds, off)
	want := plain.Format(ds.Dict)

	// In-memory profile shared across runs.
	prof := opt.NewProfile()
	cfg := base
	cfg.Profile = prof
	cold, coldStats := Discover(ds, cfg)
	if coldStats.Optimizer == nil || coldStats.Optimizer.Profiled {
		t.Fatalf("cold run: report=%+v, want enabled and unprofiled", coldStats.Optimizer)
	}
	if got := cold.Format(ds.Dict); got != want {
		t.Fatalf("cold optimized output diverged from optimizer-off output")
	}
	if prof.Len() == 0 {
		t.Fatalf("first run recorded no observations into the shared profile")
	}
	warm, warmStats := Discover(ds, cfg)
	if warmStats.Optimizer == nil || !warmStats.Optimizer.Profiled {
		t.Fatalf("warm run: report=%+v, want profile-tuned", warmStats.Optimizer)
	}
	if got := warm.Format(ds.Dict); got != want {
		t.Fatalf("warm optimized output diverged from optimizer-off output")
	}
	if warmStats.Optimizer.Fired(opt.RuleSharedPrefix) == 0 {
		t.Errorf("warm run did not materialize the remembered shared prefix")
	}

	// On-disk round trip: two runs against a ProfileDir, profile persisted
	// between them, warm output unchanged.
	dir := t.TempDir()
	cfgDir := base
	cfgDir.ProfileDir = dir
	first, _ := Discover(ds, cfgDir)
	if got := first.Format(ds.Dict); got != want {
		t.Fatalf("profile-dir cold output diverged")
	}
	if _, err := os.Stat(filepath.Join(dir, "profile.json")); err != nil {
		t.Fatalf("profile not persisted: %v", err)
	}
	second, secondStats := Discover(ds, cfgDir)
	if got := second.Format(ds.Dict); got != want {
		t.Fatalf("profile-dir warm output diverged")
	}
	if secondStats.Optimizer == nil || !secondStats.Optimizer.Profiled {
		t.Fatalf("profile-dir warm run: report=%+v, want profile-tuned", secondStats.Optimizer)
	}
}

// TestSpillDifferentialOptimizer drives the optimizer across the spill axis:
// under a 1-byte budget every keyed stage spills and the spill-bypass rule
// must never fire, while an unbudgeted warm run may bypass — in all cases
// the output is byte-identical to the optimizer-off result.
func TestSpillDifferentialOptimizer(t *testing.T) {
	t.Setenv("DATAFLOW_OPTIMIZER", "on")
	ds := skewedDataset(400, 7) // large enough for every worker of three to spill
	for _, w := range []int{1, 3} {
		label := fmt.Sprintf("w=%d", w)
		base := Config{Support: 2, Workers: w}
		off := base
		off.DisableOptimizer = true
		plain, _, err := TryDiscover(ds, off)
		if err != nil {
			t.Fatalf("%s optimizer-off: %v", label, err)
		}
		want := plain.Format(ds.Dict)

		prof := opt.NewProfile()
		for run := 0; run < 2; run++ {
			cfg := base
			cfg.MemoryBudget = 1
			cfg.SpillDir = t.TempDir()
			cfg.Profile = prof
			got, stats, err := TryDiscover(ds, cfg)
			if err != nil {
				t.Fatalf("%s run=%d budgeted: %v", label, run, err)
			}
			if gotF := got.Format(ds.Dict); gotF != want {
				t.Errorf("%s run=%d: budgeted optimized output diverged (%d vs %d bytes)",
					label, run, len(gotF), len(want))
			}
			if stats.SpilledBytes == 0 || stats.SpilledRuns == 0 {
				t.Errorf("%s run=%d: 1-byte budget spilled nothing", label, run)
			}
			if stats.Optimizer.Fired(opt.RuleSpillBypass) != 0 {
				t.Errorf("%s run=%d: spill bypass fired under a 1-byte budget", label, run)
			}
		}
	}
}
