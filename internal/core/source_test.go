package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
	"repro/internal/source"
)

// writeSplitNT serializes ds as nfiles contiguous N-Triples slices under
// dir, named so their sorted order reproduces document order. The returned
// glob matches exactly those files.
func writeSplitNT(t *testing.T, ds *rdf.Dataset, dir string, nfiles int) string {
	t.Helper()
	base, rem := len(ds.Triples)/nfiles, len(ds.Triples)%nfiles
	lo := 0
	for i := 0; i < nfiles; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		part := &rdf.Dataset{Dict: ds.Dict, Triples: ds.Triples[lo:hi]}
		lo = hi
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, part); err != nil {
			t.Fatalf("WriteNTriples: %v", err)
		}
		path := filepath.Join(dir, fmt.Sprintf("part-%02d.nt", i))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	return filepath.Join(dir, "part-*.nt")
}

// slurpBaseline concatenates the resolved files in canonical order, reads
// the bytes as one document through one StreamNTriples call, and discovers
// over the result: the single-document read every multi-file ingest mode
// must match byte for byte. It also returns the lines a lenient spec skips.
func slurpBaseline(t *testing.T, spec source.Spec, cfg Config) (string, *rdf.Dataset, []*rdf.SyntaxError) {
	t.Helper()
	resolved, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	var concat bytes.Buffer
	for _, f := range resolved.Files {
		b, err := os.ReadFile(f.Path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		concat.Write(b)
	}
	ds := rdf.NewDataset()
	var skipped []*rdf.SyntaxError
	var remap []rdf.Value
	err = rdf.StreamNTriples(&concat, rdf.StreamConfig{Lenient: spec.Lenient}, func(blk *rdf.TermBlock) error {
		remap = ds.AppendBlock(blk, remap)
		skipped = append(skipped, blk.Errs...)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamNTriples: %v", err)
	}
	res, _ := Discover(ds, cfg)
	return res.Format(ds.Dict), ds, skipped
}

// sameDict fails unless the two dictionaries issued identical IDs.
func sameDict(t *testing.T, label string, got, want *rdf.Dictionary) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("%s: dictionary size %d, want %d", label, got.Len(), want.Len())
		return
	}
	for id := 0; id < want.Len(); id++ {
		if g, w := got.Decode(rdf.Value(id)), want.Decode(rdf.Value(id)); g != w {
			t.Errorf("%s: dictionary ID %d = %q, want %q", label, id, g, w)
			return
		}
	}
}

// runDistributedSource executes one streamed-source discovery on an
// in-process cluster: every worker resolves the same spec and loads only its
// own file assignment; the coordinator holds no triples. Returns the
// coordinator's result, dictionary, and stats.
func runDistributedSource(t *testing.T, spec source.Spec, cfg Config, workers int, faults []dataflow.ProcFault) (*cind.Result, *rdf.Dictionary, *RunStats) {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "coord.sock")
	var wg sync.WaitGroup
	ccfg := dataflow.ClusterConfig{
		Workers:           workers,
		Network:           "unix",
		Addr:              addr,
		ProcFaults:        faults,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatDeadline: time.Second,
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
				if _, _, _, err := DiscoverSource(context.Background(), spec, wcfg); err == nil {
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
	res, dict, stats, err := DiscoverSource(context.Background(), spec, ccfg2)
	if err != nil {
		t.Fatalf("distributed source discovery failed: %v", err)
	}
	return res, dict, stats
}

// TestSourceSingleProcessMatchesSlurp: streamed single-process ingest over
// split files must reproduce the concatenated single-document read byte for
// byte — result and dictionary — across shard counts and block geometries.
func TestSourceSingleProcessMatchesSlurp(t *testing.T) {
	ds := skewedDataset(500, 17)
	dir := t.TempDir()
	glob := writeSplitNT(t, ds, dir, 3)
	cfg := Config{Support: 2, Workers: 4}
	want, wantDS, _ := slurpBaseline(t, source.Spec{Inputs: []string{glob}}, cfg)

	for _, shards := range []int{1, 4} {
		for _, blockBytes := range []int{64, 1 << 20} {
			label := fmt.Sprintf("shards=%d block=%d", shards, blockBytes)
			spec := source.Spec{Inputs: []string{glob}, Shards: shards, BlockBytes: blockBytes}
			res, dict, stats, err := DiscoverSource(context.Background(), spec, cfg)
			if err != nil {
				t.Fatalf("%s: DiscoverSource: %v", label, err)
			}
			if got := res.Format(dict); got != want {
				t.Errorf("%s: streamed output diverged from slurp (%d vs %d bytes)",
					label, len(got), len(want))
			}
			sameDict(t, label, dict, wantDS.Dict)
			if stats.Ingest == nil || stats.Ingest.Files != 3 {
				t.Errorf("%s: ingest stats missing or wrong file count: %+v", label, stats.Ingest)
			}
			if stats.Ingest.LocalTriples != int64(len(ds.Triples)) {
				t.Errorf("%s: LocalTriples = %d, want %d",
					label, stats.Ingest.LocalTriples, len(ds.Triples))
			}
		}
	}
}

// TestSourceClusterMatchesSingleProcess: worker-local cluster ingest must
// agree byte for byte with the slurp baseline at every worker count, with
// the coordinator never materializing a triple.
func TestSourceClusterMatchesSingleProcess(t *testing.T) {
	ds := skewedDataset(500, 17)
	dir := t.TempDir()
	glob := writeSplitNT(t, ds, dir, 5)
	cfg := Config{Support: 2}
	want, wantDS, _ := slurpBaseline(t, source.Spec{Inputs: []string{glob}}, Config{Support: 2, Workers: 4})

	for _, w := range []int{1, 2, 4} {
		label := fmt.Sprintf("workers=%d", w)
		spec := source.Spec{Inputs: []string{glob}}
		res, dict, stats := runDistributedSource(t, spec, cfg, w, nil)
		if got := res.Format(dict); got != want {
			t.Errorf("%s: cluster output diverged from slurp (%d vs %d bytes)",
				label, len(got), len(want))
		}
		sameDict(t, label, dict, wantDS.Dict)
		ing := stats.Ingest
		if ing == nil {
			t.Fatalf("%s: no ingest stats", label)
		}
		if ing.LocalTriples != 0 {
			t.Errorf("%s: coordinator materialized %d triples, want 0", label, ing.LocalTriples)
		}
		var total int64
		for _, n := range ing.PerRank {
			total += n
		}
		if total != int64(len(ds.Triples)) {
			t.Errorf("%s: per-rank counts sum to %d, want %d", label, total, len(ds.Triples))
		}
		if w > 1 && ing.ShuffleBytes == 0 {
			t.Errorf("%s: placement shuffle recorded no bytes", label)
		}
	}
}

// TestSourceClusterSurvivesWorkerKillDuringIngest injects process kills at
// the ingest collectives themselves — the dictionary-merge gather (seq 0)
// and the placement shuffle (seq 1) — and requires recovery with
// byte-identical output.
func TestSourceClusterSurvivesWorkerKillDuringIngest(t *testing.T) {
	ds := skewedDataset(500, 17)
	dir := t.TempDir()
	glob := writeSplitNT(t, ds, dir, 4)
	want, wantDS, _ := slurpBaseline(t, source.Spec{Inputs: []string{glob}}, Config{Support: 2, Workers: 2})

	for _, seq := range []int{0, 1} {
		label := fmt.Sprintf("kill:1@%d", seq)
		faults := []dataflow.ProcFault{{Seq: seq, Rank: 1, Kind: dataflow.ProcKill}}
		res, dict, stats := runDistributedSource(t, source.Spec{Inputs: []string{glob}},
			Config{Support: 2}, 2, faults)
		if got := res.Format(dict); got != want {
			t.Errorf("%s: post-recovery output diverged (%d vs %d bytes)", label, len(got), len(want))
		}
		sameDict(t, label, dict, wantDS.Dict)
		if stats.WorkerLosses != 1 || stats.WorkerRespawns != 1 {
			t.Errorf("%s: loss accounting: losses=%d respawns=%d, want 1/1",
				label, stats.WorkerLosses, stats.WorkerRespawns)
		}
	}
}

// TestSourceLenientParity: streamed lenient ingest must skip exactly the
// lines a lenient read of the concatenated files skips, and report them
// attributed to their file.
func TestSourceLenientParity(t *testing.T) {
	ds := skewedDataset(200, 7)
	dir := t.TempDir()
	glob := writeSplitNT(t, ds, dir, 2)
	// Dirty one file with malformed lines.
	dirty := filepath.Join(dir, "part-00.nt")
	b, err := os.ReadFile(dirty)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, []byte("this is not a triple\n<only> <two> .\n")...)
	if err := os.WriteFile(dirty, b, 0o644); err != nil {
		t.Fatal(err)
	}

	spec := source.Spec{Inputs: []string{glob}, Lenient: true}
	res, dict, stats, err := DiscoverSource(context.Background(), spec, Config{Support: 2, Workers: 2})
	if err != nil {
		t.Fatalf("DiscoverSource: %v", err)
	}
	if stats.Ingest.SkippedLines != 2 || len(stats.Ingest.Skipped) != 2 {
		t.Fatalf("skipped = %d lines %d detail, want 2/2: %v",
			stats.Ingest.SkippedLines, len(stats.Ingest.Skipped), stats.Ingest.Skipped)
	}
	for _, m := range stats.Ingest.Skipped {
		if m.Path != dirty {
			t.Errorf("skipped line attributed to %s, want %s", m.Path, dirty)
		}
	}

	// Lenient baseline over the same concatenation, read as one document.
	want, wantDS, skipped := slurpBaseline(t, spec, Config{Support: 2, Workers: 2})
	if len(skipped) != 2 {
		t.Fatalf("baseline skipped %d lines, want 2", len(skipped))
	}
	if got := res.Format(dict); got != want {
		t.Errorf("lenient streamed output diverged from the baseline (%d vs %d bytes)",
			len(got), len(want))
	}
	sameDict(t, "lenient", dict, wantDS.Dict)
}

// FuzzDecodeFileTables: whatever the bytes, neither the dictionary-merge
// decoder nor the placement shuffle's triple decoder panics or allocates
// beyond what the bytes can hold. Each fails with ErrCorruptRecord or decodes
// a value that round-trips; a triple's bytes do so exactly, so neither a
// prefix of them nor one byte more decodes to a triple.
func FuzzDecodeFileTables(f *testing.F) {
	ft := &fileTable{index: 3, terms: []string{"<a>", `"b"`, ""}, ntrips: 7, skipped: 1}
	f.Add((&fileTable{index: 1}).append(ft.append(nil)))
	f.Add(tripleCodec{}.AppendValue(nil, rdf.Triple{S: 1, P: 300, O: rdf.MaxValue}))
	f.Fuzz(func(t *testing.T, src []byte) {
		typed := func(what string, err error) bool {
			if err != nil && !errors.Is(err, dataflow.ErrCorruptRecord) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
			return err == nil
		}
		fts, err := decodeFileTables(src)
		typed("file tables", err)
		var again []byte
		for _, ft := range fts {
			if cap(ft.terms) > len(src) {
				t.Fatalf("%d terms preallocated from %d bytes", cap(ft.terms), len(src))
			}
			again = ft.append(again)
		}
		if err == nil {
			if back, err := decodeFileTables(again); err != nil || !reflect.DeepEqual(back, fts) {
				t.Fatalf("file tables do not round-trip: %v", err)
			}
		}
		var codec tripleCodec
		if tr, err := codec.DecodeValue(src); typed("triple", err) {
			if back, err := codec.DecodeValue(codec.AppendValue(nil, tr)); err != nil || back != tr {
				t.Fatalf("triple %v does not round-trip: %v, %v", tr, back, err)
			}
			for k := range src {
				if _, err := codec.DecodeValue(src[:k]); typed("triple prefix", err) {
					t.Fatalf("%d of %d bytes decode to a triple", k, len(src))
				}
			}
			if _, err := codec.DecodeValue(append(src[:len(src):len(src)], 0)); typed("triple and a byte", err) {
				t.Fatal("a trailing byte decodes to a triple")
			}
		}
	})
}
