package main

// workload is one set of inputs and the way the program is run on them.
// Every workload has a primary part, which its name describes, and a control
// part, because each run reports every end-to-end metric: the discovery
// workloads spend a fifth of the run on the fixed serving mix, and `serve`
// spends two fifths on CLI runs in -query mode. The control cells are where
// a change to the other half of the system has to show "no change".
type workload struct {
	Name, Why string
	Dataset   string  // internal/datagen name
	Scale     float64 // datagen scale
	Shards    int     // .nt files the dataset is cut into
	Support   int     // -support
	Cluster   bool    // the CLI runs as coordinator of two worker processes
	Serving   bool    // queries are the primary part, CLI runs the control
}

// The serving mix always runs over the LUBM analogue at this size; it is the
// dataset of `serve` and the control of the other three.
const (
	servingDataset = "LUBM-1"
	servingScale   = 2
	servingSupport = 10
)

var workloads = []workload{
	{
		Name: "scan_heavy", Dataset: "Freebase", Scale: 2, Shards: 2, Support: 2000,
		Why: "Freebase x2, two shards, h=2000: every triple crosses ingest, dictionary, FCDetector, CGCreator and the extractor scans; 22 result lines, so result handling cannot show",
	},
	{
		Name: "result_heavy", Dataset: "DB14-PLE", Scale: 1, Shards: 1, Support: 10,
		Why: "DB14-PLE x1, h=10: 67 k pertinent CINDs make candidate merging, minimization, Result.Sort and formatting dominate; ingest or scan work must predict no change here",
	},
	{
		Name: "cluster2", Dataset: "Freebase", Scale: 2, Shards: 2, Support: 2000, Cluster: true,
		Why: "scan_heavy's files under -cluster 2: worker-local ingest, dictionary merge and wire exchange replace in-memory scatter, so a gain that costs the distributed path shows",
	},
	{
		Name: "serve", Dataset: servingDataset, Scale: servingScale, Shards: 1, Support: servingSupport, Serving: true,
		Why: "LUBM x2 behind sparql.Engine, 2 closed-loop clients, seeded lookup/scan/join6 mix: the only workload where triplestore and sparql work and discovery only sets up",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the knobs that separate a measuring run from the smoke pass the
// package's tests make: the smoke pass runs every code path once on inputs
// a fiftieth the size.
type sizes struct {
	Shrink           float64 // multiplies dataset scales and support thresholds
	Setups           int     // set-ups per run; setup_s is their median
	MinCLIReps       int     // measured CLI runs, whatever the time budget
	QueriesPerClient int     // per closed-loop batch
	MinBatches       int
	RefReps          int // traced run: CLI reference runs per mode
	MinTracedReps    int
	KernelPairs      int
	KernelKeys       int
	MicroReps        int // measured runs of each isolated kernel and of the store build
	ProbeReps        int // direct calls per query class
	StartupReps      int // cluster start-up probes
}

var fullSizes = sizes{
	Shrink: 1, Setups: 3, MinCLIReps: 5, QueriesPerClient: 1500, MinBatches: 3,
	RefReps: 2, MinTracedReps: 2, KernelPairs: kernelPairs, KernelKeys: kernelKeys, MicroReps: 3,
	ProbeReps: 200, StartupReps: 3,
}

var smokeSizes = sizes{
	Shrink: 0.02, Setups: 1, MinCLIReps: 1, QueriesPerClient: 40, MinBatches: 1,
	RefReps: 1, MinTracedReps: 1, KernelPairs: kernelPairs / 50, KernelKeys: kernelKeys / 50, MicroReps: 1,
	ProbeReps: 5, StartupReps: 1,
}

func (s sizes) scale(v float64) float64 { return v * s.Shrink }

// support shrinks a threshold with the data, but not below ten: on a few
// thousand triples a lower threshold makes every other value pair a CIND and
// the smoke pass a minute long.
func (s sizes) support(h int) int {
	return max(min(h, 10), int(float64(h)*s.Shrink))
}

// metricDef names a metric the way BENCHMARK.json does; a test keeps the two
// lists identical.
type metricDef struct {
	Name, Unit, Better string
}

var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"query_qps", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayerMetrics = []metricDef{
	{"source.ingest_wall_s", "s", "lower"},
	{"source.ingest_mb_per_s", "MB/s", "higher"},
	{"source.ingest_alloc_mb", "MB", "lower"},
	{"rdf.dictionary_wall_s", "s", "lower"},
	{"rdf.dictionary_terms", "count", "lower"},
	{"dataflow.root_wall_s", "s", "lower"},
	{"fcdetect.wall_s", "s", "lower"},
	{"fcdetect.alloc_mb", "MB", "lower"},
	{"fcdetect.frequent_unary", "count", "lower"},
	{"fcdetect.frequent_binary", "count", "lower"},
	{"fcdetect.ars", "count", "higher"},
	{"capture.wall_s", "s", "lower"},
	{"capture.alloc_mb", "MB", "lower"},
	{"capture.groups", "count", "lower"},
	{"extract.wall_s", "s", "lower"},
	{"extract.alloc_mb", "MB", "lower"},
	{"extract.load", "count", "lower"},
	{"extract.broad", "count", "lower"},
	{"extract.broad_per_load", "ratio", "higher"},
	{"minimize.wall_s", "s", "lower"},
	{"minimize.pertinent_ratio", "ratio", "lower"},
	{"cind.sort_wall_s", "s", "lower"},
	{"cind.format_wall_s", "s", "lower"},
	{"cind.output_mb", "MB", "lower"},
	{"dataflow.total_work", "count", "lower"},
	{"dataflow.work_balance", "ratio", "higher"},
	{"dataflow.shuffle_mb", "MB", "lower"},
	{"kernel.narrow_chain_ns_per_rec", "ns", "lower"},
	{"kernel.reduce_by_key_ns_per_rec", "ns", "lower"},
	{"kernel.group_by_key_ns_per_rec", "ns", "lower"},
	{"kernel.cogroup_ns_per_rec", "ns", "lower"},
	{"kernel.spill_reduce_ns_per_rec", "ns", "lower"},
	{"kernel.spill_mb", "MB", "lower"},
	{"process.cpu_s", "s", "lower"},
	{"process.cpu_per_wall", "ratio", "higher"},
	{"cluster.overhead_ratio", "ratio", "lower"},
	{"cluster.startup_s", "s", "lower"},
	{"cluster.cpu_ratio", "ratio", "lower"},
	{"triplestore.build_wall_s", "s", "lower"},
	{"triplestore.build_alloc_mb", "MB", "lower"},
	{"sparql.parse_us", "us", "lower"},
	{"sparql.plan_us", "us", "lower"},
	{"sparql.minimize_us", "us", "lower"},
	{"sparql.exec_p50_ms.lookup", "ms", "lower"},
	{"sparql.exec_p50_ms.scan", "ms", "lower"},
	{"sparql.exec_p50_ms.join6", "ms", "lower"},
	{"sparql.engine_overhead_us", "us", "lower"},
	{"sparql.plan_cache_hit_ratio", "ratio", "higher"},
	{"sparql.rejected", "count", "lower"},
	{"sparql.timeouts", "count", "lower"},
	{"trace.total_s", "s", "lower"},
	{"trace.unattributed_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
