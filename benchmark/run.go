package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cind"
	"repro/internal/rdf"
	"repro/internal/source"
	"repro/internal/triplestore"
)

// cliShare is the part of a run's measuring time that goes to CLI runs; the
// rest goes to closed-loop query batches. The control part gets enough for
// a steady median: a fifth is three query batches, two fifths are fifteen of
// serve's sub-second CLI runs.
func (w workload) cliShare() float64 {
	if w.Serving {
		return 0.4
	}
	return 0.8
}

// run is one invocation: one workload, one seed, tracing on or off.
type run struct {
	w       workload
	sz      sizes
	seed    int64
	seconds float64
	work    string // this run's scratch directory, inside the checkout
	bin     string // the rdfind binary built from the checkout
	log     io.Writer
	tr      *tracer

	attempted int
	failures  []string
}

// check counts one attempted operation — a run of the program, a query or a
// verification — and records it as failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

// inputsFor writes the inputs of a dataset under the run's directory.
func (r *run) inputsFor(dataset string, scale float64, shards int) (*inputs, error) {
	dir := filepath.Join(r.work, "in-"+strings.ToLower(dataset))
	return generateInputs(dataset, r.sz.scale(scale), shards, r.seed, dir)
}

// discoveryArgs is the CLI invocation of a plain discovery on in.
func (r *run) discoveryArgs(in *inputs, cluster bool) []string {
	mode := []string{"-workers", strconv.Itoa(discoveryWorkers)}
	if cluster {
		mode = []string{"-cluster", strconv.Itoa(discoveryWorkers)}
	}
	return append([]string{"-support", strconv.Itoa(r.sz.support(r.w.Support))}, append(mode, "-input", in.Glob)...)
}

// queryArgs is the CLI invocation of `serve`'s control part: discover, build
// the store, answer the six-pattern join a hundred times, print its rows.
func (r *run) queryArgs(in *inputs) []string {
	return []string{
		"-support", strconv.Itoa(r.sz.support(r.w.Support)), "-workers", strconv.Itoa(discoveryWorkers),
		"-query", join6Query, "-query-reps", "100", in.Files[0],
	}
}

// endToEnd is the run with tracing off: the program as its user runs it.
func (r *run) endToEnd() (map[string]summary, error) {
	// Set-up, several times over: setup_s is the median, and the files of
	// every round must be the same bytes.
	var setupS []float64
	var in *inputs
	var serving *servingState
	for i := 0; i < r.sz.Setups; i++ {
		t0 := time.Now()
		next, err := r.inputsFor(r.w.Dataset, r.w.Scale, r.w.Shards)
		if err != nil {
			return nil, err
		}
		if r.w.Serving {
			if serving != nil {
				serving.close()
			}
			if serving, err = newServingState(r.tr, next.Files, r.sz.support(r.w.Support)); err != nil {
				return nil, err
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if in != nil {
			r.check(strings.Join(in.SHA256, " ") == strings.Join(next.SHA256, " "), "inputs differ between two set-ups of seed %d", r.seed)
		}
		in = next
	}
	for i, f := range in.Files {
		r.logf("input %s sha256=%s", filepath.Base(f), in.SHA256[i])
	}
	if !r.w.Serving {
		// The control part's serving state is not this workload's set-up.
		lubm, err := r.inputsFor(servingDataset, servingScale, 1)
		if err != nil {
			return nil, err
		}
		if serving, err = newServingState(r.tr, lubm.Files, r.sz.support(servingSupport)); err != nil {
			return nil, err
		}
	}
	defer serving.close()

	seqs := make([][]query, clients)
	rng := rand.New(rand.NewSource(r.seed))
	for c := range seqs {
		seqs[c] = serving.queryMix(rng, r.sz.QueriesPerClient)
	}
	want, err := serving.expectedRows(append(seqs, []query{{"join6", join6Query}}))
	if err != nil {
		return nil, err
	}

	cliBudget := r.seconds * r.w.cliShare()
	var runs []childRun
	if r.w.Serving {
		var ref childRun
		ref, runs = r.measureCLI(cliBudget, r.sz.MinCLIReps, "ref.out", r.queryArgs(in), r.queryArgs(in))
		if len(runs) > 0 {
			rows, err := countLines(ref.Stdout)
			r.check(err == nil && rows-1 == want[join6Query], "-query printed %d rows, the serial pass has %d (%v)", rows-1, want[join6Query], err)
		}
	} else {
		// The warm-up of a cluster run is the single-process run whose
		// output the cluster's must equal byte for byte.
		var ref childRun
		ref, runs = r.measureCLI(cliBudget, r.sz.MinCLIReps, "ref.out", r.discoveryArgs(in, false), r.discoveryArgs(in, r.w.Cluster))
		if len(runs) > 0 {
			ds, err := readDataset(in.Files)
			if err != nil {
				return nil, err
			}
			r.certify(ref.Stdout, ds)
		}
	}
	batches := r.measureQueries(serving, seqs, want, r.seconds-cliBudget)

	var wall, rss, qps, p50, p99 []float64
	for _, c := range runs {
		wall, rss = append(wall, c.WallS), append(rss, c.RSSMB)
	}
	for _, b := range batches {
		lat := sortedCopy(b.LatencyMS)
		qps = append(qps, float64(len(lat))/b.WallS)
		p50 = append(p50, percentileSorted(lat, 0.5))
		p99 = append(p99, percentileSorted(lat, tailPercentile(len(lat))))
	}
	if len(batches) > 0 {
		n := len(batches[0].LatencyMS)
		r.logf("query tail: p%g of %d samples per batch, %.0f beyond it", 100*tailPercentile(n), n, float64(n)*(1-tailPercentile(n)))
	}
	// Peak RSS is the one metric reported as the minimum over the runs, not
	// the median: the same program on the same file peaks anywhere between
	// its floor and a quarter above it, depending on how far the heap grows
	// before a concurrent collection ends. The floor repeats within a few
	// percent and moves with every byte the program retains; the median of
	// five such peaks moves by an eighth from run to run.
	return map[string]summary{
		"wall_s":       summarize(wall),
		"peak_rss_mb":  floorOf(rss),
		"query_qps":    summarize(qps),
		"query_p50_ms": summarize(p50),
		"query_p99_ms": summarize(p99),
		"setup_s":      summarize(setupS),
	}, nil
}

// measureCLI makes one discarded warm-up run (cold page cache, binary load),
// whose output is kept as refName, and then measured runs until the budget
// is spent, at least minReps. Every measured run must print the warm-up's
// bytes.
func (r *run) measureCLI(budgetS float64, minReps int, refName string, warmArgs, args []string) (ref childRun, runs []childRun) {
	ref, err := runCLI(r.bin, r.work, refName, warmArgs...)
	r.check(err == nil, "warm-up run: %v", err)
	if err != nil {
		return ref, nil
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < budgetS; i++ {
		c, err := runCLI(r.bin, r.work, "rep.out", args...)
		r.check(err == nil, "run %d: %v", i, err)
		if err != nil {
			continue
		}
		r.check(c.SHA256 == ref.SHA256, "run %d printed sha256 %s, the reference run %s", i, c.SHA256, ref.SHA256)
		runs = append(runs, c)
	}
	return ref, runs
}

// measureQueries replays the sequences in closed-loop batches until the
// budget is spent, at least MinBatches, after one discarded batch.
func (r *run) measureQueries(s *servingState, seqs [][]query, want map[string]int, budgetS float64) []batch {
	s.runBatch(seqs, want) // fills the plan cache
	var batches []batch
	start := time.Now()
	for len(batches) < r.sz.MinBatches || time.Since(start).Seconds() < budgetS {
		b := s.runBatch(seqs, want)
		r.attempted += len(b.LatencyMS)
		r.failures = append(r.failures, b.Failed...)
		batches = append(batches, b)
	}
	return batches
}

// certified is how many printed statements a run checks against the dataset.
const certified = 50

// certify checks a seeded sample of the statements the program printed
// against the dataset itself: each CIND must hold with exactly the support
// it reports, each rule must hold, and none may be below the threshold.
func (r *run) certify(outPath string, ds *rdf.Dataset) {
	data, err := os.ReadFile(outPath)
	r.check(err == nil, "reading the program's output: %v", err)
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	r.check(len(data) > 0, "the program printed no statement")
	if len(data) == 0 {
		return
	}
	h := r.sz.support(r.w.Support)
	rng := rand.New(rand.NewSource(r.seed))
	for _, i := range rng.Perm(len(lines))[:min(certified, len(lines))] {
		line := lines[i]
		kind, stmt, _ := strings.Cut(line, " ")
		switch kind {
		case "CIND":
			inc, err := cind.ParseInclusion(stmt, ds.Dict)
			support := reportedSupport(stmt)
			ok := err == nil && support >= h && cind.Holds(ds, inc) && cind.SupportOf(ds, inc.Dep) == support
			r.check(ok, "not certified: %s (%v)", line, err)
		case "AR":
			ar, err := cind.ParseAR(stmt, ds.Dict)
			r.check(err == nil && ar.Support >= h && cind.ARHolds(ds, ar), "not certified: %s (%v)", line, err)
		default:
			r.check(false, "unexpected output line %q", line)
		}
	}
}

// reportedSupport reads the trailing "[support=N]" of a printed statement.
func reportedSupport(stmt string) int {
	open := strings.LastIndex(stmt, "[support=")
	if open < 0 {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(stmt[open+len("[support="):], "]"))
	if err != nil {
		return -1
	}
	return n
}

func readDataset(files []string) (*rdf.Dataset, error) {
	resolved, err := source.Spec{Inputs: files, Shards: discoveryWorkers}.Resolve()
	if err != nil {
		return nil, err
	}
	ds, _, err := resolved.ReadDataset()
	return ds, err
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// perLayer is the run with tracing on: the same inputs driven through the
// layers inside this process, with reference runs of the program beside it
// to reconcile the two, and the isolated probes.
func (r *run) perLayer() (map[string]summary, error) {
	in, err := r.inputsFor(r.w.Dataset, r.w.Scale, r.w.Shards)
	if err != nil {
		return nil, err
	}
	samples := map[string][]float64{}
	add := func(m map[string]float64) {
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}

	// Reference runs of the program, tracing off, in both modes.
	singleRef, single := r.measureCLI(0, r.sz.RefReps, "ref-single.out", r.discoveryArgs(in, false), r.discoveryArgs(in, false))
	clusterRef, cluster := r.measureCLI(0, r.sz.RefReps, "ref-cluster.out", r.discoveryArgs(in, true), r.discoveryArgs(in, true))
	if len(single) == 0 || len(cluster) == 0 {
		return nil, fmt.Errorf("no reference run succeeded: %s", failureSummary(r.failures))
	}
	r.check(singleRef.SHA256 == clusterRef.SHA256, "-cluster output differs from the single-process output")
	own := single
	if r.w.Cluster {
		own = cluster
	}
	for _, c := range own {
		add(map[string]float64{"process.cpu_s": c.CPUS, "process.cpu_per_wall": c.CPUS / c.WallS})
	}
	singleWall, singleCPU := medianOf(single, func(c childRun) float64 { return c.WallS }), medianOf(single, func(c childRun) float64 { return c.CPUS })
	add(map[string]float64{
		"cluster.overhead_ratio": medianOf(cluster, func(c childRun) float64 { return c.WallS }) / singleWall,
		"cluster.cpu_ratio":      medianOf(cluster, func(c childRun) float64 { return c.CPUS }) / singleCPU,
	})

	// The traced discovery, until its share of the run is spent.
	cliOut, err := os.ReadFile(singleRef.Stdout)
	if err != nil {
		return nil, err
	}
	support := r.sz.support(r.w.Support)
	var last *traced
	start := time.Now()
	for i := 0; i < r.sz.MinTracedReps || time.Since(start).Seconds() < r.seconds*0.4; i++ {
		runtime.GC() // each repetition starts from a collected heap, as a fresh process does
		if i > 0 {
			r.tr = newTracer() // only the last repetition's spans are written out
		}
		t, err := tracedDiscovery(r.tr, in.Files, support)
		if err != nil {
			return nil, err
		}
		r.check(t.Output == string(cliOut), "traced Format differs from the program's output (%d vs %d bytes)", len(t.Output), len(cliOut))
		t.Metrics["trace.overhead_ratio"] = t.Metrics["trace.total_s"] / singleWall
		add(t.Metrics)
		last = t
	}
	r.certify(singleRef.Stdout, last.Dataset)
	r.logLayerShares(samples)

	once := map[string]float64{}
	if err := runKernels(r.tr, r.sz.KernelPairs, r.sz.KernelKeys, r.sz.MicroReps, filepath.Join(r.work, "tmp"), once); err != nil {
		return nil, err
	}
	if err := r.probeClusterStartup(once); err != nil {
		return nil, err
	}
	if err := r.probeServing(in, once); err != nil {
		return nil, err
	}
	add(once)

	out := make(map[string]summary, len(samples))
	for k, vs := range samples {
		out[k] = summarize(vs)
	}
	return out, nil
}

func medianOf(runs []childRun, f func(childRun) float64) float64 {
	vs := make([]float64, len(runs))
	for i, c := range runs {
		vs[i] = f(c)
	}
	return median(vs)
}

// logLayerShares prints where the traced discovery's time went and names the
// largest layer; what no layer accounts for is printed last.
func (r *run) logLayerShares(samples map[string][]float64) {
	total := median(samples["trace.total_s"])
	largest := layers[0].Metric
	for _, l := range layers {
		if median(samples[l.Metric]) > median(samples[largest]) {
			largest = l.Metric
		}
		r.logf("share %-24s %5.1f %%", l.Metric, 100*median(samples[l.Metric])/total)
	}
	r.logf("share %-24s %5.1f %%", "trace.unattributed_s", 100*median(samples["trace.unattributed_s"])/total)
	r.logf("largest layer: %s", largest)
}

// probeClusterStartup times -cluster on an input so small that the run is
// spawn, handshake and teardown.
func (r *run) probeClusterStartup(m map[string]float64) error {
	id := r.tr.begin("cluster.startup")
	defer func() { r.tr.end(id, nil) }()
	// Countries is the suite's smallest dataset; it is not shrunk further.
	in, err := generateInputs("Countries", 1, 1, r.seed, filepath.Join(r.work, "in-countries"))
	if err != nil {
		return err
	}
	var walls []float64
	for i := 0; i < r.sz.StartupReps; i++ {
		c, err := runCLI(r.bin, r.work, "startup.out", "-support", "10", "-cluster", strconv.Itoa(discoveryWorkers), in.Files[0])
		r.check(err == nil, "cluster start-up probe: %v", err)
		if err == nil {
			walls = append(walls, c.WallS)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("cluster start-up probe never succeeded")
	}
	m["cluster.startup_s"] = median(walls)
	return nil
}

// probeServing sets the serving state up under spans, times its layers one
// call at a time and replays one closed-loop batch for the engine's
// counters. For `serve` the state is the workload's own; for the others it
// is the same LUBM state their control part queries.
func (r *run) probeServing(in *inputs, m map[string]float64) error {
	if !r.w.Serving {
		var err error
		if in, err = r.inputsFor(servingDataset, servingScale, 1); err != nil {
			return err
		}
	}
	s, err := newServingState(r.tr, in.Files, r.sz.support(servingSupport))
	if err != nil {
		return err
	}
	defer s.close()
	var buildS, buildMB []float64
	for i := 0; i < r.sz.MicroReps; i++ {
		id := r.tr.begin("triplestore.build")
		alloc := allocatedMB()
		triplestore.New(s.ds)
		buildMB = append(buildMB, allocatedMB()-alloc)
		buildS = append(buildS, r.tr.end(id, nil))
	}
	m["triplestore.build_wall_s"], m["triplestore.build_alloc_mb"] = median(buildS), median(buildMB)

	rng := rand.New(rand.NewSource(r.seed))
	if err := s.probeServing(r.tr, rng, r.sz.ProbeReps, m); err != nil {
		return err
	}
	seqs := make([][]query, clients)
	for c := range seqs {
		seqs[c] = s.queryMix(rng, r.sz.QueriesPerClient)
	}
	want, err := s.expectedRows(seqs)
	if err != nil {
		return err
	}
	id := r.tr.begin("sparql.closed_loop")
	before := s.eng.Stats()
	b := s.runBatch(seqs, want)
	after := s.eng.Stats()
	r.tr.end(id, map[string]float64{"queries": float64(len(b.LatencyMS))})
	r.attempted += len(b.LatencyMS)
	r.failures = append(r.failures, b.Failed...)
	hits, misses := after.PlanCacheHits-before.PlanCacheHits, after.PlanCacheMisses-before.PlanCacheMisses
	m["sparql.plan_cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	m["sparql.rejected"] = float64(after.Rejected - before.Rejected)
	m["sparql.timeouts"] = float64(after.Timeouts - before.Timeouts)
	return nil
}
