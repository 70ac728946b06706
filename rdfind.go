// Package rdfind discovers pertinent conditional inclusion dependencies
// (CINDs) and exact association rules in RDF datasets. It is a from-scratch
// Go reproduction of "RDFind: Scalable Conditional Inclusion Dependency
// Discovery in RDF Datasets" (Kruse et al., SIGMOD 2016).
//
// A CIND is a statement (α, φ) ⊆ (β, φ′): the values that triple element α
// takes over the triples satisfying condition φ are contained in the values
// that element β takes over the triples satisfying φ′. RDFind returns the
// pertinent CINDs — those that are broad (their support, the number of
// distinct included values, reaches a user threshold) and minimal (not
// implied by another valid CIND) — and reports exact association rules in
// place of the CINDs they subsume.
//
// Quickstart:
//
//	ds, _, err := rdfind.ReadSource(rdfind.Source{Inputs: []string{"data.nt"}, Shards: 4})
//	if err != nil { ... }
//	result, stats := rdfind.Discover(ds, rdfind.Config{Support: 100, Workers: 4})
//	fmt.Print(result.Format(ds.Dict))
//	fmt.Printf("%d CINDs, %d ARs in %v\n", stats.Pertinent, stats.ARs, stats.Duration)
//
// The heavy lifting lives in internal packages mirroring the paper's
// architecture: internal/fcdetect (frequent conditions and association
// rules), internal/capture (capture groups), internal/extract (CIND
// extraction and minimality), all running on internal/dataflow, a small
// multi-worker dataflow engine standing in for Apache Flink.
package rdfind

import (
	"context"
	"io"

	"repro/internal/cind"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/rdf"
	"repro/internal/source"
)

// Re-exported model types. See package repro/internal/cind for details.
type (
	// Condition is a unary (β=v) or binary (β=v1 ∧ γ=v2) predicate over a
	// triple's elements.
	Condition = cind.Condition
	// Capture pairs a projection attribute with a condition.
	Capture = cind.Capture
	// Inclusion is a CIND statement: dependent capture ⊆ referenced capture.
	Inclusion = cind.Inclusion
	// CIND is an inclusion with its support.
	CIND = cind.CIND
	// AR is an exact association rule with its support.
	AR = cind.AR
	// Result is a discovery result: pertinent CINDs plus association rules.
	Result = cind.Result

	// Dataset is a dictionary-encoded set of RDF triples.
	Dataset = rdf.Dataset
	// Triple is one dictionary-encoded RDF statement.
	Triple = rdf.Triple
	// Attr identifies a triple element (Subject, Predicate, Object).
	Attr = rdf.Attr
	// Value is a dictionary-encoded RDF term.
	Value = rdf.Value

	// Config parameterizes a discovery run.
	Config = core.Config
	// Stats reports what a run did.
	Stats = core.RunStats
	// Variant selects a pipeline strategy (the default is full RDFind).
	Variant = core.Variant

	// StageError reports the terminal failure of one dataflow stage: which
	// stage, which worker, on which attempt, and the recovered cause.
	StageError = dataflow.StageError
	// PanicError is a panic recovered from a worker goroutine.
	PanicError = dataflow.PanicError
	// FaultPlan is a deterministic fault-injection schedule for robustness
	// testing; attach one via Config.FaultPlan.
	FaultPlan = dataflow.FaultPlan
	// Fault schedules one injected fault at a stage/worker/occurrence site.
	Fault = dataflow.Fault
	// FaultSite identifies one worker execution of one stage.
	FaultSite = dataflow.Site

	// Cluster is the coordinator of a multi-process distributed run; attach
	// one via Config.Cluster.
	Cluster = dataflow.Cluster
	// ClusterConfig parameterizes StartCluster.
	ClusterConfig = dataflow.ClusterConfig
	// WorkerConn is one worker rank's connection to the coordinator; attach
	// one via Config.WorkerConn.
	WorkerConn = dataflow.WorkerConn
	// ProcFault schedules one injected process-level fault (kill, connection
	// drop, duplicated or delayed contribution) at a collective barrier.
	ProcFault = dataflow.ProcFault
	// ProcFaultKind selects the process-level fault kind.
	ProcFaultKind = dataflow.ProcFaultKind

	// SyntaxError describes one malformed N-Triples line (with line number).
	SyntaxError = rdf.SyntaxError

	// Source names a set of input files — N-Triples or Turtle, plain or
	// gzipped, direct paths or globs — decoded as a bounded stream in
	// canonical document order (the sorted, deduplicated expansion of its
	// inputs).
	Source = source.Spec
	// IngestStats reports what the streaming ingest layer did: per-rank
	// triple counts, placement shuffle bytes, and skipped lines.
	IngestStats = core.IngestStats
	// Malformed is one skipped input line, attributed to its file.
	Malformed = source.Malformed
	// InputError marks a failure to open or decode an input file — as
	// opposed to a failed discovery — for exit-code classification.
	InputError = source.InputError
)

// Source resolution sentinels (errors.Is).
var (
	// ErrLenientTurtle rejects lenient mode on Turtle input.
	ErrLenientTurtle = source.ErrLenientTurtle
	// ErrNoInput means the source's inputs matched no files at all.
	ErrNoInput = source.ErrNoInput
	// ErrBadFormat rejects an unknown Source.Format.
	ErrBadFormat = source.ErrBadFormat
)

// Source format names (Source.Format).
const (
	// FormatAuto resolves each file's format from its extension, after
	// stripping a .gz suffix (.ttl/.turtle → Turtle, anything else →
	// N-Triples).
	FormatAuto = source.FormatAuto
	// FormatNT forces N-Triples decoding for every input file.
	FormatNT = source.FormatNT
	// FormatTurtle forces Turtle decoding for every input file.
	FormatTurtle = source.FormatTurtle
)

// DiscoverSource streams a source spec through discovery without ever
// materializing the input files in memory: the streaming counterpart of
// DiscoverContext, returning the global dictionary alongside the result. On
// a cluster, every worker rank streams only its own file assignment and a
// dictionary-merge collective produces the canonical dictionary — the
// coordinator never holds a triple — while the output stays byte-identical
// to a single-process run over the same inputs.
func DiscoverSource(ctx context.Context, src Source, cfg Config) (*Result, *rdf.Dictionary, *Stats, error) {
	return core.DiscoverSource(ctx, src, cfg)
}

// ReadSource folds a whole source spec into one in-memory Dataset in
// canonical document order — for callers that need the full dataset
// resident (query serving, spot checks) but still want streamed, gzip-aware,
// multi-file input handling. Lenient-mode skipped lines come back attributed
// to their files.
func ReadSource(src Source) (*Dataset, []Malformed, error) {
	resolved, err := src.Resolve()
	if err != nil {
		return nil, nil, err
	}
	return resolved.ReadDataset()
}

// Injected fault kinds.
const (
	// FaultTransient makes a worker fail with a retryable error.
	FaultTransient = dataflow.FaultTransient
	// FaultPanic makes a worker goroutine panic (recovered and retried).
	FaultPanic = dataflow.FaultPanic
)

// Injected process-level fault kinds (ProcFault.Kind).
const (
	// ProcKill terminates the worker process at the scheduled barrier.
	ProcKill = dataflow.ProcKill
	// ProcDisconnect drops the worker's connection (it reconnects).
	ProcDisconnect = dataflow.ProcDisconnect
	// ProcDuplicate sends the scheduled contribution twice.
	ProcDuplicate = dataflow.ProcDuplicate
	// ProcDelay stalls the scheduled contribution by ProcFault.Delay.
	ProcDelay = dataflow.ProcDelay
)

// StartCluster opens a coordinator for a multi-process run: it listens for
// worker connections, spawns every rank via cfg.Spawn, and supervises
// heartbeats, losses, and respawns. Attach the cluster via Config.Cluster.
func StartCluster(cfg ClusterConfig) (*Cluster, error) { return dataflow.StartCluster(cfg) }

// DialWorker connects a worker process to its coordinator and performs the
// rank handshake. Attach the connection via Config.WorkerConn; the job's
// worker count, partitioning seed, and fault schedule arrive with it.
func DialWorker(network, addr string, rank int) (*WorkerConn, error) {
	return dataflow.DialWorker(network, addr, rank)
}

// ErrProcessLoss marks errors caused by a worker process declared lost; it
// appears (wrapped in a StageError) when a loss becomes terminal.
var ErrProcessLoss = dataflow.ErrProcessLoss

// Triple element constants.
const (
	Subject   = rdf.Subject
	Predicate = rdf.Predicate
	Object    = rdf.Object
)

// Pipeline variants (§8.5, §8.6 of the paper).
const (
	// Standard is the full RDFind pipeline.
	Standard = core.Standard
	// DirectExtraction is RDFind-DE: no capture-support pruning, no load
	// balancing, exact candidate sets only.
	DirectExtraction = core.DirectExtraction
	// NoFrequentConditions is RDFind-NF: no frequent-condition pruning and
	// no association rules.
	NoFrequentConditions = core.NoFrequentConditions
	// MinimalFirst extracts minimal CINDs per arity class in multiple
	// passes instead of minimizing the broad set afterwards.
	MinimalFirst = core.MinimalFirst
)

// Discover runs CIND discovery over a dataset and returns the pertinent
// CINDs and association rules together with run statistics. It panics on any
// error (an exceeded Config.LoadLimit, an exhausted retry budget); use
// TryDiscover or DiscoverContext to observe errors instead.
func Discover(ds *Dataset, cfg Config) (*Result, *Stats) {
	return core.Discover(ds, cfg)
}

// TryDiscover is Discover with errors surfaced instead of panicking, along
// with partial statistics for the completed part of the run.
func TryDiscover(ds *Dataset, cfg Config) (*Result, *Stats, error) {
	return core.TryDiscover(ds, cfg)
}

// DiscoverContext runs discovery under a cancellation context: cancelling
// (or timing out) ctx aborts the pipeline promptly between stages with an
// error wrapping ctx.Err() and a partial-stats report. Worker panics are
// recovered into StageErrors, and transient faults are retried per
// Config.MaxStageAttempts before surfacing.
func DiscoverContext(ctx context.Context, ds *Dataset, cfg Config) (*Result, *Stats, error) {
	return core.DiscoverContext(ctx, ds, cfg)
}

// NewFaultPlan builds a deterministic fault-injection schedule for
// Config.FaultPlan; an empty plan injects nothing but traces execution.
func NewFaultPlan(faults ...Fault) *FaultPlan { return dataflow.NewFaultPlan(faults...) }

// RandomFaultPlan samples n faults from a traced fault-free run, seeded for
// reproducibility. See dataflow.RandomFaultPlan.
func RandomFaultPlan(seed int64, sites []FaultSite, n int) *FaultPlan {
	return dataflow.RandomFaultPlan(seed, sites, n)
}

// IsTransient reports whether an error (anywhere in its chain) is marked as
// a transient, retryable fault.
func IsTransient(err error) bool { return dataflow.IsTransient(err) }

// NewDataset returns an empty dataset for programmatic construction.
func NewDataset() *Dataset { return rdf.NewDataset() }

// ReadNTriples parses an N-Triples document. Malformed lines abort parsing
// with a *SyntaxError naming the line. Files, Turtle, gzip and lenient input
// are read with ReadSource.
func ReadNTriples(r io.Reader) (*Dataset, error) {
	ds := rdf.NewDataset()
	var remap []rdf.Value
	err := rdf.StreamNTriples(r, rdf.StreamConfig{}, func(blk *rdf.TermBlock) error {
		remap = ds.AppendBlock(blk, remap)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteNTriples serializes a dataset as N-Triples.
func WriteNTriples(w io.Writer, ds *Dataset) error { return rdf.WriteNTriples(w, ds) }

// Unary builds the condition a = v over dictionary-encoded values.
func Unary(a Attr, v rdf.Value) Condition { return cind.Unary(a, v) }

// Binary builds the condition a1 = v1 ∧ a2 = v2.
func Binary(a1 Attr, v1 rdf.Value, a2 Attr, v2 rdf.Value) Condition {
	return cind.Binary(a1, v1, a2, v2)
}

// MarshalResultJSON serializes a result with surface-form terms, so the file
// is self-contained and machine-readable.
func MarshalResultJSON(res *Result, dict *rdf.Dictionary) ([]byte, error) {
	return cind.MarshalJSON(res, dict)
}

// UnmarshalResultJSON reads a result serialized by MarshalResultJSON,
// interning its terms into the given dictionary.
func UnmarshalResultJSON(data []byte, dict *rdf.Dictionary) (*Result, error) {
	return cind.UnmarshalJSON(data, dict)
}

// ParseInclusion reads a CIND statement in the textual form produced by
// Inclusion.Format, e.g. "(s, p=memberOf) ⊆ (s, p=rdf:type)" ("<=" and "&&"
// are accepted for "⊆" and "∧").
func ParseInclusion(s string, dict *rdf.Dictionary) (Inclusion, error) {
	return cind.ParseInclusion(s, dict)
}

// Holds checks an inclusion directly against a dataset by materializing both
// capture interpretations — useful for spot-checking results.
func Holds(ds *Dataset, inc Inclusion) bool { return cind.Holds(ds, inc) }

// Support computes |I(T, c)|, the support a CIND with dependent capture c
// would have on the dataset.
func Support(ds *Dataset, c Capture) int { return cind.SupportOf(ds, c) }
