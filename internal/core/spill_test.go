package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/rdf"
)

// TestSpillDifferential: a memory budget far below the working set must not
// change a single bit of the output. Every variant — including NF, where
// every condition is frequent and the binary counters are at their widest — is
// run budgeted and unbudgeted at several worker counts; results are compared
// with DeepEqual on the sorted CIND and AR slices, i.e. byte-identical.
func TestSpillDifferential(t *testing.T) {
	datasets := map[string]*rdf.Dataset{
		"table1": fixtures.University(),
		"skewed": skewedDataset(400, 7),
	}
	variants := []Variant{Standard, DirectExtraction, NoFrequentConditions, MinimalFirst}
	for name, ds := range datasets {
		for _, v := range variants {
			for _, w := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s %v w=%d", name, v, w)
				want, _, err := TryDiscover(ds, Config{Support: 2, Workers: w, Variant: v})
				if err != nil {
					t.Fatalf("%s unbudgeted: %v", label, err)
				}
				got, stats, err := TryDiscover(ds, Config{
					Support: 2, Workers: w, Variant: v,
					MemoryBudget: 1, SpillDir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("%s budgeted: %v", label, err)
				}
				if !reflect.DeepEqual(got.CINDs, want.CINDs) {
					t.Errorf("%s: budgeted CINDs diverged (%d vs %d)", label, len(got.CINDs), len(want.CINDs))
				}
				if !reflect.DeepEqual(got.ARs, want.ARs) {
					t.Errorf("%s: budgeted ARs diverged (%d vs %d)", label, len(got.ARs), len(want.ARs))
				}
				// The 8-triple fixture leaves a worker of several fewer keys
				// than the smallest aggregation table holds (8 entries), so
				// nothing is ever flushed; it had spilled only in the keyed
				// evidence shuffles the dense-id scan path no longer has.
				if name == "skewed" && (stats.SpilledBytes == 0 || stats.SpilledRuns == 0) {
					t.Errorf("%s: 1-byte budget spilled nothing (%d bytes / %d runs)",
						label, stats.SpilledBytes, stats.SpilledRuns)
				}
			}
		}
	}
}

// TestSpillStatsQuietWithoutBudget: an unbudgeted run reports zero spill
// activity and does not materialize spill counters in the registry snapshot.
func TestSpillStatsQuietWithoutBudget(t *testing.T) {
	_, stats, err := TryDiscover(fixtures.University(), Config{Support: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpilledBytes != 0 || stats.SpilledRuns != 0 || stats.MergePasses != 0 || stats.SpillPlanned {
		t.Errorf("unbudgeted run reports spill activity: %+v", stats)
	}
	if _, ok := stats.Dataflow.Metrics().Snapshot().Counters["dataflow.spill.bytes"]; ok {
		t.Error("unbudgeted run materialized dataflow.spill.bytes in the registry")
	}
	snap := stats.Snapshot()
	if snap.SpillPlanned || snap.SpilledBytes != 0 {
		t.Errorf("snapshot reports spill activity: %+v", snap)
	}
}

// TestSpillAbsorbsLoadLimit: with a memory budget configured, a LoadLimit
// breach no longer degrades or fails — the exact plan runs on the spill path
// and the breach is only recorded. Results still match the unlimited run.
func TestSpillAbsorbsLoadLimit(t *testing.T) {
	ds := skewedDataset(400, 7)
	want, _, err := TryDiscover(ds, Config{Support: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Without a budget this limit fails outright (see TestLoadLimit).
	res, stats, err := TryDiscover(ds, Config{
		Support: 2, Workers: 2, LoadLimit: 10,
		MemoryBudget: 1 << 10, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("budgeted run hit the load limit: %v", err)
	}
	if !stats.SpillPlanned {
		t.Error("LoadLimit breach not recorded as spill-planned")
	}
	if stats.Degraded {
		t.Error("budgeted run degraded to Bloom work units; spill should take precedence")
	}
	if !reflect.DeepEqual(res.CINDs, want.CINDs) || !reflect.DeepEqual(res.ARs, want.ARs) {
		t.Error("spill-planned run diverged from the unlimited run")
	}
	if c := stats.Dataflow.Metrics().Snapshot().Counters["extract.spill_planned_runs"]; c == 0 {
		t.Error("extract.spill_planned_runs counter is zero")
	}

	// Minimal-first breaches per pass and must absorb them the same way.
	mf, mfStats, err := TryDiscover(ds, Config{
		Support: 2, Workers: 2, Variant: MinimalFirst, LoadLimit: 10,
		MemoryBudget: 1 << 10, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("budgeted minimal-first hit the load limit: %v", err)
	}
	if !mfStats.SpillPlanned {
		t.Error("minimal-first breach not recorded as spill-planned")
	}
	if !reflect.DeepEqual(mf.CINDs, want.CINDs) {
		t.Error("spill-planned minimal-first diverged from the unlimited run")
	}
}

// TestSpillDirImpliesBudget: naming a spill directory without a budget
// selects the 256 MiB default, which is plenty for the fixture — the run
// must succeed without writing a byte.
func TestSpillDirImpliesBudget(t *testing.T) {
	cfg := Config{Support: 2, Workers: 2, SpillDir: t.TempDir()}.normalized()
	if cfg.MemoryBudget != 1<<28 {
		t.Fatalf("normalized budget = %d, want %d", cfg.MemoryBudget, 1<<28)
	}
	res, stats, err := TryDiscover(fixtures.University(), Config{Support: 2, Workers: 2, SpillDir: t.TempDir()})
	if err != nil || len(res.CINDs) == 0 {
		t.Fatalf("run failed: %v", err)
	}
	if stats.SpilledBytes != 0 {
		t.Errorf("generous default budget spilled %d bytes", stats.SpilledBytes)
	}
}
