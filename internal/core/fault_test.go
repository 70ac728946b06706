package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/extract"
	"repro/internal/fixtures"
)

// TestFaultCancelledContextAborts: a cancelled context must abort discovery
// with an error wrapping context.Canceled and a partial-stats report.
func TestFaultCancelledContextAborts(t *testing.T) {
	ds := skewedDataset(300, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats, err := DiscoverContext(ctx, ds, Config{Support: 2, Workers: 2})
	if err == nil {
		t.Fatal("cancelled context did not abort discovery")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to wrap context.Canceled", err)
	}
	var se *dataflow.StageError
	if !errors.As(err, &se) {
		t.Errorf("err = %T, want a *dataflow.StageError naming the aborted stage", err)
	}
	if res != nil {
		t.Errorf("cancelled run returned a result: %v", res)
	}
	if stats == nil || stats.Triples != ds.Size() {
		t.Errorf("cancelled run must report partial stats (got %+v)", stats)
	}
}

// TestFaultDeadlineExceededSurfaces: an expired deadline surfaces as
// context.DeadlineExceeded, the signal the CLI maps to its timeout exit code.
func TestFaultDeadlineExceededSurfaces(t *testing.T) {
	ds := skewedDataset(300, 5)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // deadline certainly expired
	_, _, err := DiscoverContext(ctx, ds, Config{Support: 2, Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
	}
}

// TestFaultLoadLimitDegradation: a LoadLimit between the degraded and the
// exact load must downgrade extraction to Bloom work units — reported in
// stats, with a byte-identical result — instead of failing the run.
func TestFaultLoadLimitDegradation(t *testing.T) {
	ds := skewedDataset(400, 7)
	res, stats, err := TryDiscover(ds, Config{Support: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded {
		t.Fatal("unlimited run reported degradation")
	}
	exact := stats.ExtractionLoad
	if exact < 2 {
		t.Fatalf("implausible exact load %d", exact)
	}
	want := res.Format(ds.Dict)

	res2, stats2, err := TryDiscover(ds, Config{Support: 2, Workers: 2, LoadLimit: exact - 1})
	if err != nil {
		t.Fatalf("limit below exact load failed instead of degrading: %v", err)
	}
	if !stats2.Degraded {
		t.Error("run under exact-load limit did not report degradation")
	}
	if stats2.ExtractionLoad >= exact {
		t.Errorf("degraded load %d not below exact load %d", stats2.ExtractionLoad, exact)
	}
	if got := res2.Format(ds.Dict); got != want {
		t.Errorf("degraded run diverged from exact run\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The minimal-first variant degrades too.
	_, mfStats, err := TryDiscover(ds, Config{Support: 2, Workers: 2, Variant: MinimalFirst, LoadLimit: exact - 1})
	if err != nil {
		t.Fatalf("minimal-first failed instead of degrading: %v", err)
	}
	if !mfStats.Degraded {
		t.Error("minimal-first under a tight limit did not report degradation")
	}

	// Direct extraction is defined exact-only: it must fail, never degrade
	// (the paper's Fig. 13 out-of-memory behavior). The failed run's partial
	// stats keep the phases that completed before extraction.
	_, deStats, err := TryDiscover(ds, Config{Support: 2, Workers: 2, Variant: DirectExtraction})
	if err != nil {
		t.Fatal(err)
	}
	deRes, deStats, err := TryDiscover(ds, Config{Support: 2, Workers: 2, Variant: DirectExtraction,
		LoadLimit: deStats.ExtractionLoad - 1})
	if !errors.Is(err, extract.ErrLoadLimit) {
		t.Errorf("RDFind-DE with a tight limit: err = %v, want ErrLoadLimit", err)
	}
	if deRes != nil {
		t.Error("failed RDFind-DE run returned a result")
	}
	if deStats == nil || deStats.FrequentUnary == 0 || deStats.CaptureGroups == 0 {
		t.Errorf("partial stats must keep the completed FC and capture phases, got %+v", deStats)
	}
}

// TestFaultDiscoverPanicsOnFailure pins Discover's contract: hard failures
// panic (so silent garbage can never be mistaken for a result) while
// TryDiscover reports the same condition as an error. RDFind-DE never
// degrades, so a load limit of 1 fails it.
func TestFaultDiscoverPanicsOnFailure(t *testing.T) {
	ds := fixtures.University()
	cfg := Config{Support: 2, Workers: 2, Variant: DirectExtraction, LoadLimit: 1}
	if _, _, err := TryDiscover(ds, cfg); !errors.Is(err, extract.ErrLoadLimit) {
		t.Fatalf("TryDiscover: err = %v, want ErrLoadLimit", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Discover did not panic on a failed run")
		}
	}()
	Discover(ds, cfg)
}
