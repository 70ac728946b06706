package main

import (
	"runtime"

	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/extract"
	"repro/internal/fcdetect"
	"repro/internal/rdf"
	"repro/internal/source"
)

// discoveryWorkers is the -workers value of every run: the box has two cores.
const discoveryWorkers = 2

// layers are the spans of one traced discovery, in pipeline order, and the
// metric each one's self time is reported as. Together they must account for
// the whole pipeline span.
var layers = []struct{ Span, Metric string }{
	{"source.ingest", "source.ingest_wall_s"},
	{"rdf.dictionary", "rdf.dictionary_wall_s"},
	{"dataflow.root", "dataflow.root_wall_s"},
	{"fcdetect", "fcdetect.wall_s"},
	{"capture", "capture.wall_s"},
	{"extract", "extract.wall_s"},
	{"minimize", "minimize.wall_s"},
	{"cind.sort", "cind.sort_wall_s"},
	{"cind.format", "cind.format_wall_s"},
}

// traced is the outcome of one traced discovery.
type traced struct {
	Output  string // Result.Format, to compare with the CLI's standard output
	Dataset *rdf.Dataset
	Metrics map[string]float64
}

// allocatedMB reads the cumulative allocation counter; layers take its
// difference across their boundaries.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// tracedDiscovery drives the files through the layers' public functions in
// the order `rdfind -input …` does (core.DiscoverSource, then harness.run):
// stream and intern block by block with hash placement, root the dataflow,
// FCDetector, CGCreator, CINDExtractor, minimization, sort, format. Every
// lazy dataset is forced with Len() inside its layer's span, so that no
// layer's work is billed to the next one.
func tracedDiscovery(tr *tracer, files []string, support int) (*traced, error) {
	m := map[string]float64{}
	root := tr.begin("pipeline")

	// Ingest: the span's self time is decode and parse; interning and
	// placing each block is the dictionary's child span.
	id := tr.begin("source.ingest")
	alloc := allocatedMB()
	resolved, err := source.Spec{Inputs: files, Shards: discoveryWorkers}.Resolve()
	if err != nil {
		return nil, err
	}
	ds := rdf.NewDataset()
	parts := make([][]rdf.Triple, discoveryWorkers)
	place := source.HashPartitioner{}
	var remap []rdf.Value
	var inputBytes int
	for i := range resolved.Files {
		err := resolved.StreamFile(i, func(blk *rdf.TermBlock) error {
			child := tr.begin("rdf.dictionary")
			from := len(ds.Triples)
			remap = ds.AppendBlock(blk, remap)
			for _, t := range ds.Triples[from:] {
				w := place.Place(t, discoveryWorkers)
				parts[w] = append(parts[w], t)
			}
			inputBytes += blk.Bytes
			tr.end(child, nil)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	m["source.ingest_alloc_mb"] = allocatedMB() - alloc
	m["rdf.dictionary_terms"] = float64(ds.Dict.Len())
	ingestS := tr.end(id, map[string]float64{"triples": float64(len(ds.Triples)), "terms": float64(ds.Dict.Len())})
	m["source.ingest_mb_per_s"] = float64(inputBytes) / (1 << 20) / ingestS

	dfctx := dataflow.NewContext(discoveryWorkers)
	id = tr.begin("dataflow.root")
	triples := dataflow.FromPartitions(dfctx, "input", parts, nil)
	tr.end(id, nil)

	id = tr.begin("fcdetect")
	alloc = allocatedMB()
	fcOpts := fcdetect.Options{}
	fc := fcdetect.Detect(triples, support, fcOpts)
	m["fcdetect.frequent_unary"] = float64(fc.Unary.Len())
	m["fcdetect.frequent_binary"] = float64(fc.Binary.Len())
	m["fcdetect.ars"] = float64(len(fc.ARs))
	m["fcdetect.alloc_mb"] = allocatedMB() - alloc
	tr.end(id, map[string]float64{"unary": m["fcdetect.frequent_unary"], "binary": m["fcdetect.frequent_binary"]})

	id = tr.begin("capture")
	alloc = allocatedMB()
	groups := capture.BuildGroups(triples, fc, fcOpts)
	m["capture.groups"] = float64(groups.Len())
	m["capture.alloc_mb"] = allocatedMB() - alloc
	tr.end(id, map[string]float64{"groups": m["capture.groups"]})

	id = tr.begin("extract")
	alloc = allocatedMB()
	broad, outcome, err := extract.BroadCINDsOutcome(groups, extract.Config{
		Support:            support,
		DegradeOnLoadLimit: true,
		BitmapSets:         dfctx.Columnar(),
	})
	if err != nil {
		return nil, err
	}
	m["extract.load"] = float64(outcome.EstimatedLoad)
	m["extract.broad"] = float64(len(broad))
	// Useful CINDs per candidate-set entry: the pruning effectiveness of
	// PAPER §8, measured where the candidates are made.
	m["extract.broad_per_load"] = float64(len(broad)) / float64(max(outcome.EstimatedLoad, 1))
	m["extract.alloc_mb"] = allocatedMB() - alloc
	tr.end(id, map[string]float64{"load": m["extract.load"], "broad": m["extract.broad"]})

	id = tr.begin("minimize")
	pertinent := extract.Minimize(broad)
	m["minimize.pertinent_ratio"] = float64(len(pertinent)) / float64(max(len(broad), 1))
	tr.end(id, map[string]float64{"pertinent": float64(len(pertinent))})
	if err := dfctx.Err(); err != nil {
		return nil, err
	}

	res := &cind.Result{CINDs: pertinent, ARs: fc.ARs}
	id = tr.begin("cind.sort")
	res.Sort(ds.Dict)
	tr.end(id, nil)

	id = tr.begin("cind.format")
	out := res.Format(ds.Dict)
	m["cind.output_mb"] = float64(len(out)) / (1 << 20)
	tr.end(id, map[string]float64{"bytes": float64(len(out))})

	total := tr.end(root, nil)

	stats := dfctx.Stats()
	m["dataflow.total_work"] = float64(stats.TotalWork())
	// 1 when every stage's records are spread evenly over the workers.
	m["dataflow.work_balance"] = float64(stats.TotalWork()) / float64(max(stats.CriticalPath(), 1)) / discoveryWorkers
	m["dataflow.shuffle_mb"] = float64(stats.Metrics().Snapshot().Counters["dataflow.shuffle.bytes"]) / (1 << 20)

	self := selfSeconds(tr.spans, root)
	var attributed float64
	for _, l := range layers {
		m[l.Metric] = self[l.Span]
		attributed += self[l.Span]
	}
	m["trace.total_s"] = total
	m["trace.unattributed_s"] = total - attributed
	return &traced{Output: out, Dataset: ds, Metrics: m}, nil
}
