package rdfind

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const facadeDoc = `<s1> <memberOf> <g1> .
<s1> <type> <Person> .
<s2> <memberOf> <g1> .
<s2> <type> <Person> .
<s3> <memberOf> <g2> .
<s3> <type> <Person> .
`

// TestFaultFacadeInjectionRoundTrip drives the fault-tolerance surface
// end to end through the public facade: trace a run, inject faults at traced
// sites, and verify the output is identical and the retries are visible.
func TestFaultFacadeInjectionRoundTrip(t *testing.T) {
	ds, err := ReadNTriples(strings.NewReader(facadeDoc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Support: 2, Workers: 2, RetryBackoff: time.Nanosecond}

	tracer := NewFaultPlan()
	cfg.FaultPlan = tracer
	res, _, err := DiscoverContext(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Format(ds.Dict)
	sites := tracer.Trace()
	if len(sites) == 0 {
		t.Fatal("empty execution trace")
	}

	cfg.FaultPlan = RandomFaultPlan(42, sites, 3)
	res, stats, err := DiscoverContext(context.Background(), ds, cfg)
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	if got := res.Format(ds.Dict); got != want {
		t.Errorf("faulted run diverged:\n%s\nwant:\n%s", got, want)
	}
	if len(cfg.FaultPlan.Fired()) == 0 {
		t.Error("no planned fault fired")
	}
	if stats.StageRetries == 0 {
		t.Error("stats do not account the retries")
	}

	// A terminal failure surfaces as a transient-marked *StageError.
	cfg.FaultPlan = NewFaultPlan(Fault{Stage: sites[0].Stage, Worker: sites[0].Worker, Kind: FaultTransient})
	cfg.MaxStageAttempts = 1
	_, _, err = DiscoverContext(context.Background(), ds, cfg)
	var se *StageError
	if !errors.As(err, &se) || !IsTransient(err) {
		t.Errorf("err = %v, want a transient *StageError", err)
	}
}

func TestFaultFacadeCancelAndLenient(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dirty.nt")
	if err := os.WriteFile(path, []byte(facadeDoc+"broken line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, malformed, err := ReadSource(Source{Inputs: []string{path}, Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(malformed) != 1 || malformed[0].Path != path || malformed[0].Err.Line != 7 {
		t.Fatalf("malformed = %v, want one error on line 7 of %s", malformed, path)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := DiscoverContext(ctx, ds, Config{Support: 2, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to wrap context.Canceled", err)
	}
	if stats == nil {
		t.Error("cancelled run must report partial stats")
	}
	if res, _, err := TryDiscover(ds, Config{Support: 2, Workers: 2}); err != nil || res == nil {
		t.Errorf("TryDiscover on a healthy run: res=%v err=%v", res, err)
	}
}
