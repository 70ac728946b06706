// Command rdfind discovers pertinent conditional inclusion dependencies and
// exact association rules in RDF input (N-Triples or Turtle, optionally
// gzip-compressed, one file or many).
//
// Usage:
//
//	rdfind [-support N] [-workers N] [-variant rdfind|de|nf|mf]
//	       [-input GLOBS] [-input-format auto|nt|turtle] [-format text|json]
//	       [-pred-only-conditions] [-lenient] [-timeout D] [-stats] [-json]
//	       [-cpuprofile FILE] [-memprofile FILE] [file.nt ...]
//	rdfind -check 'STATEMENT' [flags] file.nt
//	rdfind -query 'SELECT ...' [-query-reps N] [flags] file.nt
//	rdfind -cluster N [-cluster-network tcp|unix] [-chaos SPEC] [flags] file.nt
//	rdfind worker -addr ADDR -rank N [-network tcp|unix]
//
// Input is named by positional paths and/or -input, a comma-separated list
// of paths and globs (e.g. -input 'parts/*.nt.gz'). The sorted, deduplicated
// expansion defines the canonical document order; output is identical no
// matter how the same statements are split across files. Files are decoded
// as a bounded stream — discovery never materializes the input in memory,
// so datasets larger than RAM ingest fine, gzipped or not (.gz extension or
// content magic both select streaming decompression). The input format
// defaults to auto: a .ttl or .turtle extension (before any trailing .gz)
// selects the Turtle reader per file, anything else N-Triples. -lenient and
// parallel parsing (one shard per -workers) apply to N-Triples only; Turtle
// and N-Triples readers intern identical surface forms, so equivalent files
// produce identical discovery results. README.md tabulates every flag.
//
// -query serves a SPARQL query (the engine's BGP+FILTER subset) over the
// input through the concurrent query engine after discovery: the discovered
// CINDs minimize the query, and the engine's plan cache — keyed by BGP shape
// — is exercised by -query-reps repetitions of the same text. Result rows
// replace the discovery result on stdout; with -stats the engine's counters
// (queries served, plan-cache hits and misses) are appended to the run
// statistics on stderr.
//
// The result is printed one statement per line, CINDs and ARs sorted by
// descending support. With -stats, run statistics (frequent conditions,
// capture groups, durations, per-stage work accounting and the operator
// trace) go to stderr. With -json, stdout instead carries one JSON document
// holding the result plus the run's snapshot — its counts, its work totals,
// one trace span per stage and the cluster and shuffle counters no span
// holds, each quantity once (see internal/core.RunSnapshot).
//
// -cpuprofile and -memprofile write runtime/pprof profiles of this process (a
// -cluster coordinator's, not its workers'). CPU samples carry the label
// phase = ingest, fcdetect, capture, extract or consolidate.
//
// -cluster N runs discovery as a coordinator with N worker processes: the
// process listens on a socket, spawns N copies of itself in worker mode, and
// supervises them with heartbeats; a worker process that dies or whose
// connection breaks is respawned and recovers through the engine's lineage
// replay, with output identical to a single-process run. Ingest is
// worker-local: file i of the resolved input goes to rank i mod N, each
// worker streams only its own files, and a dictionary-merge collective
// reconstructs the canonical global dictionary — the coordinator never
// materializes a single triple (-stats prints the per-rank ingest counts and
// the coordinator's zero). -chaos injects
// deterministic process faults for robustness testing, as a comma-separated
// list of kind:rank@seq entries (kinds kill, drop, delay[:duration]),
// e.g. -chaos 'kill:1@4,drop:0@7'. The worker subcommand is spawned by the
// coordinator and is not normally invoked by hand; the job's parameters
// travel in the coordinator's welcome.
//
// Exit codes distinguish failure classes for scripting:
//
//	0  success
//	1  discovery failure (worker fault, load limit, -check not holding,
//	   result not written to stdout in full)
//	2  usage error (bad flags, unknown variant or format, -workers outside
//	   [1, 1024], -cluster outside [0, 1024])
//	3  input parse failure (malformed N-Triples, unreadable file)
//	4  timeout (-timeout exceeded before discovery finished)
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/sparql"
	"repro/internal/triplestore"
)

// Exit codes (documented above).
const (
	exitOK        = 0
	exitDiscovery = 1
	exitUsage     = 2
	exitParse     = 3
	exitTimeout   = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the rdfind flags, bound by newFlagSet.
type options struct {
	support, workers, queryReps, cluster              int
	input, variant, format, inputFormat, check, query string
	clusterNet, chaos, cpuProfile, memProfile         string
	predOnly, json, stats, lenient                    bool
	timeout                                           time.Duration
}

// newFlagSet defines every rdfind flag. README.md's flag table lists the
// same names and defaults, which TestFlagTable checks.
func newFlagSet(stderr io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("rdfind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.IntVar(&o.support, "support", 100, "support threshold h (minimum distinct included values)")
	fs.IntVar(&o.workers, "workers", 4, "logical dataflow workers and parallel N-Triples parse shards, in [1, 1024]")
	fs.StringVar(&o.input, "input", "", "comma-separated input paths and globs, combined with positional paths; sorted expansion is the document order")
	fs.StringVar(&o.variant, "variant", "rdfind", "pipeline variant: rdfind, de, nf, mf")
	fs.BoolVar(&o.predOnly, "pred-only-conditions", false, "use predicates only in conditions (no predicate projections)")
	fs.StringVar(&o.format, "format", "text", "output format: text or json")
	fs.StringVar(&o.inputFormat, "input-format", "auto", "input format: auto (sniff the extension, .gz stripped first), nt, or turtle")
	fs.BoolVar(&o.json, "json", false, "emit one JSON document with the result and the run's metrics snapshot")
	fs.StringVar(&o.check, "check", "", "instead of discovering, validate one CIND statement, e.g. '(s, p=a) <= (s, p=b)'")
	fs.StringVar(&o.query, "query", "", "after discovery, serve this SPARQL query through the concurrent engine (CINDs minimize it) and print its rows instead of the result")
	fs.IntVar(&o.queryReps, "query-reps", 1, "execute -query this many times; repetitions of one shape hit the plan cache")
	fs.BoolVar(&o.stats, "stats", false, "print run statistics and the operator trace to stderr")
	fs.BoolVar(&o.lenient, "lenient", false, "skip malformed N-Triples lines (reported to stderr) instead of aborting")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort discovery after this duration (0 = no limit), exit code 4")
	fs.IntVar(&o.cluster, "cluster", 0, "run as coordinator of N worker processes, N in [0, 1024] (0 = single-process); overrides -workers")
	fs.StringVar(&o.clusterNet, "cluster-network", "unix", "coordinator listen network: unix or tcp")
	fs.StringVar(&o.chaos, "chaos", "", "inject process faults, comma-separated kind:rank@seq entries (kinds kill, drop, delay:DUR), e.g. 'kill:1@4'")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of this process to `file`; samples carry a phase label (ingest, fcdetect, capture, extract, consolidate)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of this process to `file` when the run ends")
	return fs, o
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	if len(args) > 0 && args[0] == "worker" {
		return runWorker(args[1:], stdout, stderr)
	}
	fs, o := newFlagSet(stderr)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "rdfind:", err)
		return exitDiscovery
	}
	defer func() {
		if err := stopProfiles(); err != nil && code == exitOK {
			fmt.Fprintln(stderr, "rdfind:", err)
			code = exitDiscovery
		}
	}()

	inputs := fs.Args()
	for _, in := range strings.Split(o.input, ",") {
		if in = strings.TrimSpace(in); in != "" {
			inputs = append(inputs, in)
		}
	}
	if len(inputs) == 0 {
		fmt.Fprintln(stderr, "usage: rdfind [flags] [-input GLOBS] [file.nt ...]")
		fs.PrintDefaults()
		return exitUsage
	}

	variant, ok := map[string]rdfind.Variant{
		"rdfind": rdfind.Standard,
		"de":     rdfind.DirectExtraction,
		"nf":     rdfind.NoFrequentConditions,
		"mf":     rdfind.MinimalFirst,
	}[o.variant]
	if !ok {
		fmt.Fprintf(stderr, "rdfind: unknown variant %q\n", o.variant)
		return exitUsage
	}
	if o.format != "text" && o.format != "json" {
		fmt.Fprintf(stderr, "rdfind: unknown format %q\n", o.format)
		return exitUsage
	}
	if o.workers < 1 || o.workers > rdfind.MaxWorkers {
		fmt.Fprintf(stderr, "rdfind: -workers %d outside [1, %d]\n", o.workers, rdfind.MaxWorkers)
		return exitUsage
	}
	if o.cluster < 0 || o.cluster > rdfind.MaxWorkers {
		fmt.Fprintf(stderr, "rdfind: -cluster %d outside [0, %d]\n", o.cluster, rdfind.MaxWorkers)
		return exitUsage
	}
	if o.cluster > 0 {
		// -check never runs the engine at all.
		switch {
		case o.check != "":
			fmt.Fprintln(stderr, "rdfind: -check does not use -cluster")
			return exitUsage
		case o.clusterNet != "unix" && o.clusterNet != "tcp":
			fmt.Fprintf(stderr, "rdfind: unknown -cluster-network %q\n", o.clusterNet)
			return exitUsage
		}
	} else if o.chaos != "" {
		fmt.Fprintln(stderr, "rdfind: -chaos requires -cluster")
		return exitUsage
	}
	if o.query != "" {
		switch {
		case o.check != "":
			fmt.Fprintln(stderr, "rdfind: -query and -check are mutually exclusive")
			return exitUsage
		case o.cluster > 0:
			fmt.Fprintln(stderr, "rdfind: -query serves from a single process and cannot combine with -cluster")
			return exitUsage
		case o.queryReps < 1:
			fmt.Fprintln(stderr, "rdfind: -query-reps must be at least 1")
			return exitUsage
		}
	}
	src := rdfind.Source{
		Inputs:  inputs,
		Format:  o.inputFormat,
		Lenient: o.lenient,
		Shards:  o.workers,
	}
	// Resolve up front so flag-class mistakes (unknown format, lenient
	// Turtle, bad glob) report as usage errors before any file is opened.
	if _, err := src.Resolve(); err != nil {
		fmt.Fprintln(stderr, "rdfind:", err)
		return classifyInputErr(err)
	}

	// -check mode: validate one statement against the materialized dataset
	// and exit with its truth value.
	if o.check != "" {
		ds, code := readSource(src, stderr)
		if code != exitOK {
			return code
		}
		inc, err := rdfind.ParseInclusion(o.check, ds.Dict)
		if err != nil {
			fmt.Fprintln(stderr, "rdfind:", err)
			return exitUsage
		}
		holds := rdfind.Holds(ds, inc)
		out := newResultWriter(stdout)
		fmt.Fprintf(out, "%s  holds=%v support=%d\n", inc.Format(ds.Dict), holds, rdfind.Support(ds, inc.Dep))
		if code := flushResult(out, stderr); code != exitOK {
			return code
		}
		if !holds {
			return exitDiscovery
		}
		return exitOK
	}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	cfg := rdfind.Config{
		Support:                    o.support,
		Workers:                    o.workers,
		Variant:                    variant,
		PredicatesOnlyInConditions: o.predOnly,
	}

	// -query mode needs the dataset resident for the triple store, so it
	// reads the source whole and runs the in-memory discovery path; query
	// rows replace the discovery result on stdout.
	if o.query != "" {
		ds, code := readSource(src, stderr)
		if code != exitOK {
			return code
		}
		res, runStats, err := rdfind.DiscoverContext(ctx, ds, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "rdfind:", err)
			if errors.Is(err, context.DeadlineExceeded) {
				return exitTimeout
			}
			return exitDiscovery
		}
		return runQuery(ctx, ds, res, runStats, o.query, o.queryReps, o.workers,
			o.json || o.format == "json", o.stats, stdout, stderr)
	}

	if o.cluster > 0 {
		spec := jobSpec{
			Inputs:   absInputs(inputs),
			Format:   o.inputFormat,
			Support:  o.support,
			Variant:  o.variant,
			PredOnly: o.predOnly,
			Lenient:  o.lenient,
		}
		cl, code := startCluster(o.cluster, o.clusterNet, o.chaos, spec, stderr)
		if code != exitOK {
			return code
		}
		defer cl.Close()
		cfg.Cluster = cl
	}
	res, dict, runStats, err := rdfind.DiscoverSource(ctx, src, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "rdfind:", err)
		if o.stats && runStats != nil {
			printStats(stderr, runStats)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return exitTimeout
		}
		return classifyInputErr(err)
	}
	reportSkipped(stderr, runStats)

	out := newResultWriter(stdout)
	switch {
	case o.json:
		resJSON, err := rdfind.MarshalResultJSON(res, dict)
		if err != nil {
			fmt.Fprintln(stderr, "rdfind:", err)
			return exitDiscovery
		}
		doc := struct {
			Result json.RawMessage   `json:"result"`
			Stats  *core.RunSnapshot `json:"stats"`
		}{Result: resJSON, Stats: runStats.Snapshot()}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "rdfind:", err)
			return exitDiscovery
		}
		out.Write(append(data, '\n'))
	case o.format == "json":
		data, err := rdfind.MarshalResultJSON(res, dict)
		if err != nil {
			fmt.Fprintln(stderr, "rdfind:", err)
			return exitDiscovery
		}
		out.Write(append(data, '\n'))
	default:
		res.WriteTo(out, dict)
	}
	if code := flushResult(out, stderr); code != exitOK {
		return code
	}

	if o.stats {
		printStats(stderr, runStats)
	}
	return exitOK
}

// startProfiles starts the CPU profile, if asked for, and returns the
// function that ends it and writes the allocation profile, if asked for.
// With both paths empty neither does anything.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			first = cpu.Close()
		}
		if memPath != "" {
			mem, err := os.Create(memPath)
			if err == nil {
				runtime.GC() // the profile is as of the last collection
				err = pprof.Lookup("allocs").WriteTo(mem, 0)
				if cerr := mem.Close(); err == nil {
					err = cerr
				}
			}
			if first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// newResultWriter buffers everything a run prints to standard output, about
// a thousand result lines per write. A bufio.Writer keeps the first error of
// its destination and drops what is written after it, so the writes in
// between go unchecked and flushResult reports the failure once.
func newResultWriter(stdout io.Writer) *bufio.Writer { return bufio.NewWriterSize(stdout, 64<<10) }

// flushResult ends the output: a result that did not reach standard output in
// full is a failed run, not exit 0 with a truncated file.
func flushResult(out *bufio.Writer, stderr io.Writer) int {
	if err := out.Flush(); err != nil {
		fmt.Fprintln(stderr, "rdfind: writing the result:", err)
		return exitDiscovery
	}
	return exitOK
}

// classifyInputErr maps a DiscoverSource or Resolve failure to an exit
// class: spec mistakes are usage errors, unreadable or malformed input is a
// parse failure, anything else a discovery failure.
func classifyInputErr(err error) int {
	var ie *rdfind.InputError
	switch {
	case errors.Is(err, rdfind.ErrLenientTurtle), errors.Is(err, rdfind.ErrBadFormat),
		errors.Is(err, filepath.ErrBadPattern):
		return exitUsage
	case errors.Is(err, rdfind.ErrNoInput), errors.As(err, &ie):
		return exitParse
	}
	return exitDiscovery
}

// readSource materializes the whole source in memory, for the modes that
// need a resident dataset (-check, -query). Lenient-mode skipped lines
// report to stderr like the streaming path's.
func readSource(src rdfind.Source, stderr io.Writer) (*rdfind.Dataset, int) {
	ds, malformed, err := rdfind.ReadSource(src)
	if err != nil {
		fmt.Fprintln(stderr, "rdfind:", err)
		return nil, classifyInputErr(err)
	}
	for _, m := range malformed {
		fmt.Fprintln(stderr, "rdfind: skipped", m)
	}
	if len(malformed) > 0 {
		fmt.Fprintf(stderr, "rdfind: skipped %d malformed lines\n", len(malformed))
	}
	return ds, exitOK
}

// reportSkipped prints lenient-mode skipped lines from a streamed run.
func reportSkipped(stderr io.Writer, runStats *core.RunStats) {
	ing := runStats.Ingest
	if ing == nil {
		return
	}
	for _, m := range ing.Skipped {
		fmt.Fprintln(stderr, "rdfind: skipped", m)
	}
	if ing.SkippedLines > 0 {
		fmt.Fprintf(stderr, "rdfind: skipped %d malformed lines\n", ing.SkippedLines)
	}
}

// absInputs resolves the input paths and globs to absolute form for the job
// spec: worker processes may not share the coordinator's cwd resolution.
func absInputs(inputs []string) []string {
	out := make([]string, len(inputs))
	for i, in := range inputs {
		if abs, err := filepath.Abs(in); err == nil {
			out[i] = abs
		} else {
			out[i] = in
		}
	}
	return out
}

// jobSpec carries the coordinator's discovery parameters to the worker
// processes through the welcome message, so the replicated drivers are
// guaranteed to run the same pipeline over the same input.
type jobSpec struct {
	// Inputs are the coordinator's input paths and globs, resolved to
	// absolute form (workers may not share the coordinator's cwd). Every
	// rank resolves the same spec to the same canonical document order and
	// streams only its own file assignment.
	Inputs []string `json:"inputs"`
	// Format is the coordinator's -input-format flag, applied per file by
	// every rank exactly as the coordinator applies it.
	Format   string `json:"format,omitempty"`
	Support  int    `json:"support"`
	Variant  string `json:"variant"`
	PredOnly bool   `json:"predOnly,omitempty"`
	Lenient  bool   `json:"lenient,omitempty"`
}

// startCluster opens the coordinator listener and arranges for N copies of
// this executable to be spawned in worker mode (again after every loss). The
// unix network listens on a socket in a fresh temp directory; tcp listens on
// a kernel-assigned localhost port.
func startCluster(n int, network, chaos string, spec jobSpec, stderr io.Writer) (*rdfind.Cluster, int) {
	faults, err := parseChaos(chaos)
	if err != nil {
		fmt.Fprintln(stderr, "rdfind: bad -chaos:", err)
		return nil, exitUsage
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "rdfind: resolving executable for worker spawn:", err)
		return nil, exitDiscovery
	}
	addr := "127.0.0.1:0"
	if network == "unix" {
		dir, err := os.MkdirTemp("", "rdfind-cluster-")
		if err != nil {
			fmt.Fprintln(stderr, "rdfind:", err)
			return nil, exitDiscovery
		}
		addr = filepath.Join(dir, "coord.sock")
	}
	cfg := rdfind.ClusterConfig{
		Workers:    n,
		Network:    network,
		Addr:       addr,
		JobSpec:    mustJSON(spec),
		ProcFaults: faults,
	}
	// The listener knows its final address (tcp picks a port) only after
	// StartCluster, and Spawn fires during it — hand the address to the
	// closure through a channel, resolved exactly once.
	addrCh := make(chan string, 1)
	var addrOnce sync.Once
	var dialAddr string
	cfg.Spawn = func(rank int) error {
		addrOnce.Do(func() { dialAddr = <-addrCh })
		cmd := exec.Command(exe, "worker",
			"-network", network, "-addr", dialAddr, "-rank", strconv.Itoa(rank))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		go cmd.Wait() // reap; a worker's exit status is judged by heartbeats, not wait
		return nil
	}
	cl, err := rdfind.StartCluster(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "rdfind:", err)
		return nil, exitDiscovery
	}
	addrCh <- cl.Addr().String()
	return cl, exitOK
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// parseChaos reads a -chaos schedule: comma-separated kind:rank@seq entries,
// where kind is kill, drop, or delay[:duration].
func parseChaos(s string) ([]rdfind.ProcFault, error) {
	if s == "" {
		return nil, nil
	}
	var out []rdfind.ProcFault
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		kindSpec, at, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("want kind:rank@seq, got %q", entry)
		}
		f := rdfind.ProcFault{}
		switch {
		case kindSpec == "kill":
			f.Kind = rdfind.ProcKill
		case kindSpec == "drop":
			f.Kind = rdfind.ProcDisconnect
		case kindSpec == "delay":
			f.Kind = rdfind.ProcDelay
			f.Delay = 50 * time.Millisecond
		default:
			return nil, fmt.Errorf("unknown fault kind %q in %q", kindSpec, entry)
		}
		rankStr, seqStr, ok := strings.Cut(at, "@")
		if !ok {
			return nil, fmt.Errorf("want kind:rank@seq, got %q", entry)
		}
		// delay admits a duration suffix after the seq: delay:rank@seq:200ms.
		if f.Kind == rdfind.ProcDelay {
			if seq, dur, ok := strings.Cut(seqStr, ":"); ok {
				d, err := time.ParseDuration(dur)
				if err != nil {
					return nil, fmt.Errorf("bad delay duration in %q: %v", entry, err)
				}
				f.Delay, seqStr = d, seq
			}
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("bad rank in %q", entry)
		}
		seq, err := strconv.Atoi(seqStr)
		if err != nil || seq < 0 {
			return nil, fmt.Errorf("bad seq in %q", entry)
		}
		f.Rank, f.Seq = rank, seq
		out = append(out, f)
	}
	return out, nil
}

// runWorker is the worker-mode entry point: dial the coordinator, receive the
// job parameters in the welcome, load the same input, and run the same driver
// — executing only this rank's partitions. Spawned by -cluster; the exit
// status is irrelevant to the coordinator, which judges workers by heartbeat.
func runWorker(args []string, stdout, stderr io.Writer) int {
	fs, network, addr, rank := newWorkerFlagSet(stderr)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *addr == "" || *rank < 0 {
		fmt.Fprintln(stderr, "rdfind worker: -addr and -rank are required")
		return exitUsage
	}
	w, err := rdfind.DialWorker(*network, *addr, *rank)
	if err != nil {
		fmt.Fprintln(stderr, "rdfind worker:", err)
		return exitDiscovery
	}
	defer w.Close()
	spec, err := decodeJobSpec(w.JobSpec())
	if err != nil {
		fmt.Fprintln(stderr, "rdfind worker:", err)
		return exitUsage
	}
	variant, ok := map[string]rdfind.Variant{
		"rdfind": rdfind.Standard,
		"de":     rdfind.DirectExtraction,
		"nf":     rdfind.NoFrequentConditions,
		"mf":     rdfind.MinimalFirst,
	}[spec.Variant]
	if !ok {
		fmt.Fprintf(stderr, "rdfind worker: unknown variant %q in job spec\n", spec.Variant)
		return exitUsage
	}
	src := rdfind.Source{
		Inputs:  spec.Inputs,
		Format:  spec.Format,
		Lenient: spec.Lenient,
		Shards:  w.Workers(),
	}
	_, _, _, err = rdfind.DiscoverSource(context.Background(), src, rdfind.Config{
		Support:                    spec.Support,
		Variant:                    variant,
		PredicatesOnlyInConditions: spec.PredOnly,
		WorkerConn:                 w,
	})
	if err != nil {
		// An injected kill or drop ends this process as a sudden death
		// would: exit silently, so the coordinator sees only the broken
		// connection.
		if !w.Killed() {
			fmt.Fprintln(stderr, "rdfind worker:", err)
		}
		return exitDiscovery
	}
	w.Goodbye()
	return exitOK
}

// newWorkerFlagSet defines the rdfind worker flags, which README.md's flag
// table lists too.
func newWorkerFlagSet(stderr io.Writer) (fs *flag.FlagSet, network, addr *string, rank *int) {
	fs = flag.NewFlagSet("rdfind worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	network = fs.String("network", "unix", "coordinator network: unix or tcp")
	addr = fs.String("addr", "", "coordinator address (socket path or host:port)")
	rank = fs.Int("rank", -1, "worker rank in [0, workers)")
	return fs, network, addr, rank
}

func decodeJobSpec(b []byte) (jobSpec, error) {
	var spec jobSpec
	if len(b) == 0 {
		return spec, errors.New("coordinator sent no job spec (started outside rdfind -cluster?)")
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("bad job spec: %v", err)
	}
	return spec, nil
}

// runQuery is -query mode: a concurrent sparql.Engine is stood up over the
// loaded dataset with the discovery result as minimization knowledge, the
// query runs reps times (every repetition after the first hits the plan
// cache), and the last repetition's rows print to stdout — tab-separated
// after a variable header, or as a JSON document carrying the engine's
// counters. With -stats the run statistics gain the engine's counter lines.
func runQuery(ctx context.Context, ds *rdfind.Dataset, res *rdfind.Result, runStats *core.RunStats,
	text string, reps, workers int, asJSON, showStats bool, stdout, stderr io.Writer) int {
	q, err := sparql.Parse(text)
	if err != nil {
		fmt.Fprintln(stderr, "rdfind:", err)
		return exitUsage
	}
	eng := sparql.NewEngine(triplestore.New(ds), sparql.EngineConfig{
		Workers:   workers,
		Knowledge: res,
	})
	defer eng.Close()

	var last *sparql.Result
	for i := 0; i < reps; i++ {
		if last, err = eng.Execute(ctx, q); err != nil {
			fmt.Fprintln(stderr, "rdfind:", err)
			if errors.Is(err, context.DeadlineExceeded) {
				return exitTimeout
			}
			return exitDiscovery
		}
	}
	engStats := eng.Stats()

	out := newResultWriter(stdout)
	if asJSON {
		doc := struct {
			Vars   []string           `json:"vars"`
			Rows   [][]string         `json:"rows"`
			Engine sparql.EngineStats `json:"engine"`
		}{Vars: last.Vars, Rows: last.Render(ds.Dict), Engine: engStats}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "rdfind:", err)
			return exitDiscovery
		}
		out.Write(append(data, '\n'))
	} else {
		header := make([]string, len(last.Vars))
		for i, v := range last.Vars {
			header[i] = "?" + v
		}
		fmt.Fprintln(out, strings.Join(header, "\t"))
		for _, row := range last.Render(ds.Dict) {
			fmt.Fprintln(out, strings.Join(row, "\t"))
		}
	}
	if code := flushResult(out, stderr); code != exitOK {
		return code
	}

	if showStats {
		if runStats != nil {
			printStats(stderr, runStats)
		}
		fmt.Fprintf(stderr, "queries served:      %d\n", engStats.Queries)
		fmt.Fprintf(stderr, "plan cache:          %d hits, %d misses\n",
			engStats.PlanCacheHits, engStats.PlanCacheMisses)
	}
	return exitOK
}

func printStats(w io.Writer, s *core.RunStats) {
	fmt.Fprintf(w, "triples:             %d\n", s.Triples)
	// Streamed-ingest accounting. New lines only — the fixed-format lines
	// scripts grep for (triples, worker losses) are untouched.
	if ing := s.Ingest; ing != nil {
		fmt.Fprintf(w, "ingest:              %d files\n", ing.Files)
		if ing.Distributed {
			for r, n := range ing.PerRank {
				fmt.Fprintf(w, "ingest rank %d:       %d triples\n", r, n)
			}
			if ing.Rank < 0 {
				fmt.Fprintf(w, "coordinator materialized: %d triples\n", ing.LocalTriples)
			}
			if ing.ShuffleBytes > 0 {
				fmt.Fprintf(w, "placement shuffle:   %d bytes\n", ing.ShuffleBytes)
			}
		}
		if ing.SkippedLines > 0 {
			fmt.Fprintf(w, "skipped lines:       %d\n", ing.SkippedLines)
		}
	}
	fmt.Fprintf(w, "frequent conditions: %d unary, %d binary\n", s.FrequentUnary, s.FrequentBinary)
	fmt.Fprintf(w, "capture groups:      %d\n", s.CaptureGroups)
	fmt.Fprintf(w, "broad CINDs:         %d\n", s.BroadCINDs)
	fmt.Fprintf(w, "pertinent CINDs:     %d (+%d ARs)\n", s.Pertinent, s.ARs)
	fmt.Fprintf(w, "duration:            %v\n", s.Duration)
	if s.WorkerLosses > 0 || s.WorkerRespawns > 0 {
		fmt.Fprintf(w, "worker losses:       %d (%d respawned)\n", s.WorkerLosses, s.WorkerRespawns)
	}
	if s.Degraded {
		fmt.Fprintf(w, "degraded:            extraction re-planned with Bloom work units (load %d)\n", s.ExtractionLoad)
	}
	fmt.Fprintf(w, "work-balance speedup: %.2f\n", s.Dataflow.Speedup())
	fmt.Fprintf(w, "operator trace:\n%s", s.Dataflow.SpanTree())
}
