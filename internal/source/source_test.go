package source

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rdf"
)

const ntDoc = `<http://ex/s1> <http://ex/p> <http://ex/o1> .
<http://ex/s2> <http://ex/p> "lit" .
<http://ex/s1> <http://ex/q> "v"@en .
`

const ttlDoc = `@prefix ex: <http://ex/> .
ex:s3 ex:p ex:o2 ; ex:q "w" .
`

func write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func gz(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResolveOrderAndFormats: glob expansion sorts into canonical document
// order, dedupes, and resolves per-file formats through .gz suffixes.
func TestResolveOrderAndFormats(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "b.nt"), []byte(ntDoc))
	write(t, filepath.Join(dir, "a.ttl"), []byte(ttlDoc))
	write(t, filepath.Join(dir, "c.nt.gz"), gz(t, []byte(ntDoc)))

	spec := Spec{Inputs: []string{
		filepath.Join(dir, "*.nt"),
		filepath.Join(dir, "a.ttl"),
		filepath.Join(dir, "c.nt.gz"),
		filepath.Join(dir, "b.nt"), // duplicate of the glob match
	}}
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	var got []string
	for _, f := range r.Files {
		got = append(got, filepath.Base(f.Path)+":"+f.Format)
	}
	want := []string{"a.ttl:turtle", "b.nt:nt", "c.nt.gz:nt"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("resolved %v, want %v", got, want)
	}
}

func TestResolveErrors(t *testing.T) {
	if _, err := (Spec{Inputs: []string{"/no/such/dir/*.nt"}}).Resolve(); !errors.Is(err, ErrNoInput) {
		t.Errorf("empty glob: %v, want ErrNoInput", err)
	}
	if _, err := (Spec{}).Resolve(); !errors.Is(err, ErrNoInput) {
		t.Errorf("no inputs: %v, want ErrNoInput", err)
	}
	if _, err := (Spec{Inputs: []string{"x.nt"}, Format: "rdfxml"}).Resolve(); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad format: %v, want ErrBadFormat", err)
	}
	if _, err := (Spec{Inputs: []string{"x.ttl"}, Lenient: true}).Resolve(); !errors.Is(err, ErrLenientTurtle) {
		t.Errorf("lenient turtle: %v, want ErrLenientTurtle", err)
	}
	// An explicit nt format on a .ttl path is the caller's call — no error.
	if _, err := (Spec{Inputs: []string{"x.ttl"}, Format: FormatNT, Lenient: true}).Resolve(); err != nil {
		t.Errorf("lenient with explicit nt format: %v", err)
	}
}

// TestReadDatasetMixed folds a mixed nt + turtle + gzip spec and checks the
// combined dataset against one N-Triples read of the same content in the
// same order.
func TestReadDatasetMixed(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.ttl"), []byte(ttlDoc))
	write(t, filepath.Join(dir, "b.nt"), []byte(ntDoc))
	write(t, filepath.Join(dir, "c.nt.gz"), gz(t, []byte(ntDoc)))

	r, err := Spec{Inputs: []string{filepath.Join(dir, "*")}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ds, skipped, err := r.ReadDataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skipped lines: %v", skipped)
	}

	// ttlDoc in N-Triples, so the three files read as one N-Triples document.
	const ttlAsNT = `<http://ex/s3> <http://ex/p> <http://ex/o2> .
<http://ex/s3> <http://ex/q> "w" .
`
	want := rdf.NewDataset()
	var remap []rdf.Value
	err = rdf.StreamNTriples(strings.NewReader(ttlAsNT+ntDoc+ntDoc), rdf.StreamConfig{}, func(blk *rdf.TermBlock) error {
		remap = want.AppendBlock(blk, remap)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if ds.Size() != want.Size() || ds.Dict.Len() != want.Dict.Len() {
		t.Fatalf("got %d triples / %d terms, want %d / %d",
			ds.Size(), ds.Dict.Len(), want.Size(), want.Dict.Len())
	}
	for i, tr := range ds.Triples {
		w := want.Triples[i]
		if tr != w {
			t.Fatalf("triple %d = %v, want %v", i, tr, w)
		}
	}
}

// TestStreamGzipBoundedHeap is the streamed-gzip memory guarantee: streaming
// a synthetic N-Triples file far larger than the block budget must keep the
// peak heap well below the uncompressed input size, proving neither the
// gzip layer nor the reader slurps.
func TestStreamGzipBoundedHeap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.nt.gz")

	// ~32 MiB of uncompressed N-Triples, written as a stream.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	var uncompressed int64
	const lines = 400_000
	for i := 0; i < lines; i++ {
		n, err := fmt.Fprintf(zw, "<http://example.org/subject/%d> <http://example.org/predicate/%d> \"object value number %d padded for width\" .\n",
			i, i%97, i)
		if err != nil {
			t.Fatal(err)
		}
		uncompressed += int64(n)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if uncompressed < 32<<20 {
		t.Fatalf("synthetic input only %d bytes, want >= 32 MiB", uncompressed)
	}

	r, err := Spec{Inputs: []string{path}, BlockBytes: 1 << 20}.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var peak uint64
	var triples, bytesSeen int64
	blocks := 0
	err = r.StreamFile(0, func(blk *rdf.TermBlock) error {
		triples += int64(len(blk.Triples))
		bytesSeen += int64(blk.Bytes)
		// Sample the live heap (post-GC HeapAlloc) every few blocks: raw
		// HeapAlloc would measure GC pacing, not retention, while live heap
		// directly exposes a slurp — a reader holding the decompressed input
		// would keep it reachable across every sample.
		if blocks++; blocks%8 == 0 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if triples != lines {
		t.Fatalf("streamed %d triples, want %d", triples, lines)
	}
	if bytesSeen != uncompressed {
		t.Fatalf("block byte accounting %d, want %d", bytesSeen, uncompressed)
	}

	var grown uint64
	if peak > before.HeapAlloc {
		grown = peak - before.HeapAlloc
	}
	// The stream holds O(shards × block) plus parser scratch — chunk buffers
	// round up toward 2 MiB once the line-boundary tail is appended, and a
	// handful are in flight — so true retention is a fixed ~12 MiB however
	// large the input. Half the input is a sharp ceiling with margin: a slurp
	// retains the full uncompressed bytes and blows straight through it.
	if limit := uint64(uncompressed / 2); grown > limit {
		t.Errorf("peak heap grew %d bytes streaming a %d byte input (limit %d): ingest is slurping",
			grown, uncompressed, limit)
	}
}

// TestPartitioners: both strategies are total over [0, workers), stable, and
// differ in their placement signal (subject-locality keeps a subject's
// triples together; hash spreads them).
func TestPartitioners(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
	hp, err := ByName("hash")
	if err != nil || hp.Name() != "hash" {
		t.Fatalf("ByName(hash): %v, %v", hp, err)
	}
	sp, err := ByName("subject")
	if err != nil || sp.Name() != "subject" {
		t.Fatalf("ByName(subject): %v, %v", sp, err)
	}
	def, err := ByName("")
	if err != nil || def.Name() != "hash" {
		t.Fatalf("ByName(\"\") should default to hash: %v, %v", def, err)
	}

	const workers = 4
	for s := rdf.Value(0); s < 50; s++ {
		home := sp.Place(rdf.Triple{S: s, P: 0, O: 0}, workers)
		for o := rdf.Value(0); o < 10; o++ {
			tr := rdf.Triple{S: s, P: rdf.Value(o % 3), O: o}
			for _, p := range []Partitioner{hp, sp} {
				w := p.Place(tr, workers)
				if w < 0 || w >= workers {
					t.Fatalf("%s placed %v at %d of %d", p.Name(), tr, w, workers)
				}
				if w2 := p.Place(tr, workers); w2 != w {
					t.Fatalf("%s placement unstable for %v", p.Name(), tr)
				}
			}
			if got := sp.Place(tr, workers); got != home {
				t.Errorf("subject partitioner split subject %d across %d and %d", s, home, got)
			}
			if hp.Place(tr, 1) != 0 || sp.Place(tr, 1) != 0 {
				t.Error("single-worker placement must be 0")
			}
		}
	}
}
