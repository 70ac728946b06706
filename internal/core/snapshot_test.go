package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/datagen"
)

// TestSnapshotReconciles pins the observability contract: every quantity of
// a run lives in one place. The snapshot's work totals are the engine's, the
// registry holds no counter that repeats a RunStats field or a span sum, and
// the whole thing survives a JSON round-trip.
func TestSnapshotReconciles(t *testing.T) {
	ds := datagen.Countries(0.05)
	_, stats := Discover(ds, Config{Support: 2, Workers: 2})
	snap := stats.Snapshot()

	if snap.TotalWork != stats.Dataflow.TotalWork() || snap.CriticalPath != stats.Dataflow.CriticalPath() {
		t.Errorf("snapshot work %d/%d != stats %d/%d", snap.TotalWork, snap.CriticalPath,
			stats.Dataflow.TotalWork(), stats.Dataflow.CriticalPath())
	}
	var in int64
	for _, sp := range snap.Spans {
		in += sp.RecordsIn
	}
	if in != snap.TotalWork || in == 0 {
		t.Errorf("span records-in %d != total work %d", in, snap.TotalWork)
	}

	// The registry holds only what neither RunStats nor a span can: the
	// job-wide shuffle total (a single-process run has no cluster events).
	for key, v := range snap.Metrics.Counters {
		if key != "dataflow.shuffle.bytes" {
			t.Errorf("registry repeats a run or span quantity: %s = %d", key, v)
		}
	}

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, snap) {
		t.Errorf("JSON round-trip changed the snapshot:\n got %+v\nwant %+v", back, *snap)
	}
}

// TestSnapshotWithoutEngine covers hand-built statistics (no dataflow run).
func TestSnapshotWithoutEngine(t *testing.T) {
	snap := (&RunStats{Triples: 3}).Snapshot()
	if snap.TotalWork != 0 || snap.CriticalPath != 0 || len(snap.Spans) != 0 || snap.Metrics.Counters != nil {
		t.Errorf("engineless snapshot = %+v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
}
