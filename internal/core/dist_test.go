package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/rdf"
)

// runDistributed executes one discovery on an in-process cluster: worker
// goroutines each replay DiscoverContext over the shared (read-only) dataset
// with a WorkerConn, while the coordinator runs the same call with the
// Cluster handle. Returns the coordinator's result and stats.
func runDistributed(t *testing.T, ds *rdf.Dataset, cfg Config, workers int, faults []dataflow.ProcFault) (*cind.Result, *RunStats) {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "coord.sock")
	var wg sync.WaitGroup
	ccfg := dataflow.ClusterConfig{
		Workers:    workers,
		Network:    "unix",
		Addr:       addr,
		ProcFaults: faults,
		Spawn: func(rank int) error {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := dataflow.DialWorker("unix", addr, rank)
				if err != nil {
					return
				}
				defer w.Close()
				wcfg := cfg
				wcfg.WorkerConn = w
				if _, _, err := DiscoverContext(context.Background(), ds, wcfg); err == nil {
					w.Goodbye()
				}
			}()
			return nil
		},
	}
	cl, err := dataflow.StartCluster(ccfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer wg.Wait()
	defer cl.Close()
	ccfg2 := cfg
	ccfg2.Cluster = cl
	res, stats, err := DiscoverContext(context.Background(), ds, ccfg2)
	if err != nil {
		t.Fatalf("distributed discovery failed: %v", err)
	}
	return res, stats
}

// TestDistributedDiscoveryMatchesSingleProcess is the distributed
// differential test: the coordinator's result must be byte-identical to the
// single-process result across worker counts and pipeline variants.
func TestDistributedDiscoveryMatchesSingleProcess(t *testing.T) {
	datasets := map[string]*rdf.Dataset{
		"random": randomDataset(400, 5, 21),
		"skewed": skewedDataset(500, 17),
	}
	variants := []Variant{Standard, DirectExtraction}
	for name, ds := range datasets {
		single, _ := Discover(ds, Config{Support: 2, Workers: 4})
		want := single.Format(ds.Dict)
		for _, v := range variants {
			for _, w := range []int{1, 2, 4} {
				res, stats := runDistributed(t, ds, Config{Support: 2, Variant: v}, w, nil)
				label := fmt.Sprintf("%s %v workers=%d", name, v, w)
				if got := res.Format(ds.Dict); got != want {
					t.Errorf("%s: distributed output diverged from single-process (%d vs %d bytes)",
						label, len(got), len(want))
				}
				if stats.WorkerLosses != 0 || stats.WorkerRespawns != 0 {
					t.Errorf("%s: fault-free run recorded losses=%d respawns=%d",
						label, stats.WorkerLosses, stats.WorkerRespawns)
				}
			}
		}
	}
}

// TestDistributedDiscoverySurvivesWorkerKill injects a process kill at a
// mid-pipeline collective and requires the run to complete via lineage
// re-execution with identical output and the loss accounted in the stats.
func TestDistributedDiscoverySurvivesWorkerKill(t *testing.T) {
	ds := skewedDataset(500, 17)
	single, _ := Discover(ds, Config{Support: 2, Workers: 2})
	want := single.Format(ds.Dict)

	faults := []dataflow.ProcFault{{Seq: 4, Rank: 1, Kind: dataflow.ProcKill}}
	res, stats := runDistributed(t, ds, Config{Support: 2}, 2, faults)
	if got := res.Format(ds.Dict); got != want {
		t.Errorf("post-recovery output diverged from single-process (%d vs %d bytes)",
			len(got), len(want))
	}
	if stats.WorkerLosses != 1 || stats.WorkerRespawns != 1 {
		t.Errorf("loss accounting: losses=%d respawns=%d, want 1/1",
			stats.WorkerLosses, stats.WorkerRespawns)
	}
	c := stats.Snapshot().Metrics.Counters
	if c[metrics.ClusterLosses] != 1 || c[metrics.ClusterRespawns] != 1 {
		t.Errorf("snapshot dropped cluster accounting: %v", c)
	}
}
