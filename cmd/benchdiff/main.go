// Command benchdiff compares two machine-readable benchmark records written
// by benchsuite -out and flags performance regressions.
//
// Usage:
//
//	benchdiff [-threshold F] [-alloc-threshold F] OLD.json NEW.json
//
// Wall times (the whole experiment's and each pipeline run's) may regress by
// up to the threshold fraction (default 0.2 = 20%) before the comparison
// fails; total work is deterministic for a given configuration, so any
// work-count change at all is flagged. Allocation counts (mallocs), where
// both records measured them, get their own threshold (default 0.5 — GC
// timing makes them noisier than wall time). Exit codes: 0 = within
// threshold, 1 = regression detected, 2 = usage or unreadable/incomparable
// records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.2, "tolerated wall-time regression as a fraction (0.2 = 20%)")
	allocThreshold := fs.Float64("alloc-threshold", 0.5, "tolerated allocation-count regression as a fraction (0.5 = 50%)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 || *threshold < 0 || *allocThreshold < 0 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold F] [-alloc-threshold F] OLD.json NEW.json")
		fs.PrintDefaults()
		return 2
	}
	oldRec, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newRec, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if oldRec.Schema != newRec.Schema {
		fmt.Fprintf(stderr, "benchdiff: schema mismatch: %q vs %q\n", oldRec.Schema, newRec.Schema)
		return 2
	}
	if oldRec.Experiment != newRec.Experiment {
		fmt.Fprintf(stderr, "benchdiff: different experiments: %q vs %q\n", oldRec.Experiment, newRec.Experiment)
		return 2
	}

	regressions := diff(oldRec, newRec, *threshold, *allocThreshold, stdout)
	if regressions > 0 {
		fmt.Fprintf(stdout, "FAIL: %d regression(s) beyond threshold\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "OK: within threshold")
	return 0
}

func load(path string) (*experiments.BenchRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec experiments.BenchRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema == "" {
		return nil, fmt.Errorf("%s: not a benchmark record (no schema)", path)
	}
	return &rec, nil
}

// diff writes the comparison table and returns the number of regressions:
// wall times, work counts, or allocation counts that grew beyond their
// threshold fraction. (Work counts are nearly — not exactly — deterministic:
// combiner output sizes depend on the run's random hash seed, so they get the
// same tolerance instead of an exact comparison. Allocation counts are only
// compared when both records carry them, so records from before the counters
// existed still diff cleanly.)
func diff(oldRec, newRec *experiments.BenchRecord, threshold, allocThreshold float64, w io.Writer) int {
	fmt.Fprintf(w, "== %s: old vs new ==\n", oldRec.Experiment)
	regressions := 0
	checkAt := func(label, unit string, oldV, newV, limit float64) {
		delta := 0.0
		if oldV > 0 {
			delta = newV/oldV - 1
		}
		mark := ""
		if delta > limit {
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-40s %12.1f%s %12.1f%s %+7.1f%%%s\n", label, oldV, unit, newV, unit, delta*100, mark)
	}
	check := func(label, unit string, oldV, newV float64) {
		checkAt(label, unit, oldV, newV, threshold)
	}
	checkAllocs := func(label string, oldV, newV uint64) {
		if oldV == 0 || newV == 0 {
			return // at least one record predates allocation accounting
		}
		checkAt(label, "", float64(oldV), float64(newV), allocThreshold)
	}
	// Spilled bytes get the allocation threshold too: flush boundaries shift
	// with map growth and scheduling, and — like mallocs — the counter only
	// exists when both records ran with a memory budget.
	checkSpill := func(label string, oldV, newV int64) {
		if oldV == 0 || newV == 0 {
			return // at least one record ran unbudgeted (or predates spilling)
		}
		checkAt(label, "", float64(oldV), float64(newV), allocThreshold)
	}
	// Materialized bytes (narrow-stage output buffering) follow the same
	// both-sides-measured rule: zero means the record predates the counter.
	// Regressions here mean fused chains started re-materializing
	// intermediates, so they get the tighter wall-time threshold.
	checkMaterialized := func(label string, oldV, newV int64) {
		if oldV == 0 || newV == 0 {
			return // at least one record predates materialization accounting
		}
		checkAt(label, "", float64(oldV), float64(newV), threshold)
	}
	// Serving metrics follow the both-sides-measured rule (zero means a batch
	// experiment or a record from before the serving layer). Latency quantiles
	// regress when they GROW beyond the threshold; throughput regresses when
	// it DROPS by more than the threshold, so the ratio is inverted.
	checkLatency := func(label string, oldV, newV float64) {
		if oldV == 0 || newV == 0 {
			return // at least one record predates serving metrics
		}
		checkAt(label, "ms", oldV, newV, threshold)
	}
	checkThroughput := func(label string, oldV, newV float64) {
		if oldV == 0 || newV == 0 {
			return // at least one record predates serving metrics
		}
		delta := newV/oldV - 1
		mark := ""
		if -delta > threshold { // a qps drop is the regression
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-40s %12.1f %12.1f %+7.1f%%%s\n", label, oldV, newV, delta*100, mark)
	}
	// Ingest placement-shuffle volume follows the both-sides-measured rule:
	// zero means single-process ingest or a record from before the source
	// layer. For a fixed configuration placement is a pure function of
	// dictionary IDs, so growth beyond the wall threshold means the ingest
	// path started moving more data.
	checkShuffle := func(label string, oldV, newV int64) {
		if oldV == 0 || newV == 0 {
			return // at least one record predates streamed-ingest accounting
		}
		checkAt(label, "", float64(oldV), float64(newV), threshold)
	}
	check("wall", "ms", oldRec.WallMS, newRec.WallMS)
	check("total work", "", float64(oldRec.TotalWork), float64(newRec.TotalWork))
	checkAllocs("mallocs", oldRec.Mallocs, newRec.Mallocs)
	checkSpill("spilled bytes", oldRec.SpilledBytes, newRec.SpilledBytes)
	checkMaterialized("materialized bytes", oldRec.MaterializedBytes, newRec.MaterializedBytes)
	checkShuffle("shuffle bytes", oldRec.ShuffleBytes, newRec.ShuffleBytes)
	checkThroughput("serve qps", oldRec.QPS, newRec.QPS)
	checkLatency("serve p50", oldRec.P50MS, newRec.P50MS)
	checkLatency("serve p99", oldRec.P99MS, newRec.P99MS)

	newRuns := indexRuns(newRec.Runs)
	for _, or := range oldRec.Runs {
		k := runKey(or)
		queue := newRuns[k]
		if len(queue) == 0 {
			fmt.Fprintf(w, "%-40s only in old record\n", k)
			continue
		}
		nr := queue[0]
		newRuns[k] = queue[1:]
		check("run "+k, "ms", or.WallMS, nr.WallMS)
		check("work "+k, "", float64(or.TotalWork), float64(nr.TotalWork))
		checkAllocs("mallocs "+k, or.Mallocs, nr.Mallocs)
		checkSpill("spill "+k, or.SpilledBytes, nr.SpilledBytes)
		checkMaterialized("materialized "+k, or.MaterializedBytes, nr.MaterializedBytes)
		checkShuffle("shuffle "+k, or.ShuffleBytes, nr.ShuffleBytes)
	}
	for k, queue := range newRuns {
		for range queue {
			fmt.Fprintf(w, "%-40s only in new record\n", k)
		}
	}
	return regressions
}

// runKey identifies a pipeline run by its configuration; repeated identical
// configurations are matched in order.
func runKey(r experiments.PipelineRun) string {
	return fmt.Sprintf("%s/%s/w%d/h%d", r.Label, r.Variant, r.Workers, r.Support)
}

func indexRuns(runs []experiments.PipelineRun) map[string][]experiments.PipelineRun {
	idx := make(map[string][]experiments.PipelineRun, len(runs))
	for _, r := range runs {
		idx[runKey(r)] = append(idx[runKey(r)], r)
	}
	return idx
}
