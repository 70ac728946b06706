package rdf

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// The parallel-ingest tests pin the sharded scan + re-sequence protocol of
// StreamNTriples at its default block size: every shard count assigns
// exactly the IDs, and reports exactly the errors, the reference reader does.

// oddInputs are chunking edge cases: inputs smaller than the shard count or
// the block, blank and comment lines, no trailing newline, CRLF.
var oddInputs = []string{
	"",
	"\n\n\n",
	"# only a comment\n",
	"<a> <b> <c> .", // no trailing newline
	"<a> <b> <c> .\r\n<a> <b> \"x\"@en .\r\n",
	"<a> <b> \"v\\\"q\"^^<t> .\n_:b1 <p> _:b2 .\n",
	strings.Repeat("<s> <p> <o> .\n", 100),
}

// randomDocument writes a seeded N-Triples document over a small vocabulary
// of IRIs, blank nodes, and tagged, typed, and escaped literals, so terms
// recur across chunk boundaries the way they do in real dumps.
func randomDocument(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	shapes := []string{"<http://e/r%d>", "_:b%d", `"v%d"`, `"v%d"@en-GB`, `"v\"%d"^^<http://e/t>`}
	term := func(kinds int) string { return fmt.Sprintf(shapes[rng.Intn(kinds)], rng.Intn(300)) }
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		s := term(2)
		fmt.Fprintf(&b, "%s <http://e/p%d> %s .\n", s, rng.Intn(8), term(len(shapes)))
	}
	return b.String()
}

// checkFirstError asserts strict streaming of a document with two malformed
// lines yields a nil dataset and a *SyntaxError at the first of them.
func checkFirstError(t *testing.T, label string, cfg StreamConfig) {
	t.Helper()
	in := "<a> <b> <c> .\nbroken line\n<d> <e> <f> .\nalso broken\n"
	ds, _, err := streamNT(in, cfg)
	serr, ok := err.(*SyntaxError)
	if ds != nil || !ok {
		t.Fatalf("%s: (%v, %v), want a nil dataset and a *SyntaxError", label, ds, err)
	}
	if serr.Line != 2 {
		t.Errorf("%s: first error at line %d, want 2", label, serr.Line)
	}
}

// checkLenient asserts lenient streaming under each geometry in under (cap
// 10) matches the reference lenient reader's dataset and skipped lines, and
// under each geometry in over (cap 2) gives up with its exact error.
func checkLenient(t *testing.T, under, over []StreamConfig) {
	t.Helper()
	in := "<a> <b> <c> .\nbad 1\n<d> <e> <f> .\nbad 2\nbad 3\n<g> <h> <i> .\n"
	wantDS, wantErrs, err := readNTriples(strings.NewReader(in), 10, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range under {
		cfg.Lenient, cfg.MaxErrors = true, 10
		ds, errs, err := streamNT(in, cfg)
		if err != nil {
			t.Fatalf("cfg=%+v: %v", cfg, err)
		}
		sameDatasets(t, fmt.Sprintf("lenient cfg=%+v", cfg), ds, wantDS)
		if len(errs) != len(wantErrs) {
			t.Fatalf("cfg=%+v: %d syntax errors, want %d", cfg, len(errs), len(wantErrs))
		}
		for i := range wantErrs {
			if errs[i].Line != wantErrs[i].Line {
				t.Errorf("cfg=%+v: error %d at line %d, want %d", cfg, i, errs[i].Line, wantErrs[i].Line)
			}
		}
	}

	_, _, refErr := readNTriples(strings.NewReader(in), 2, true)
	for _, cfg := range over {
		cfg.Lenient, cfg.MaxErrors = true, 2
		ds, _, err := streamNT(in, cfg)
		if ds != nil || err == nil || err.Error() != refErr.Error() {
			t.Errorf("cfg=%+v: over-cap (%v, %v), want (nil, %v)", cfg, ds, err, refErr)
		}
	}
}

// TestParallelIngestDeterministicMuseums: on a real fixture every shard
// count assigns exactly the IDs the reference reader does.
func TestParallelIngestDeterministicMuseums(t *testing.T) {
	data, err := os.ReadFile("../../cmd/rdfind/testdata/museums.nt")
	if err != nil {
		t.Fatal(err)
	}
	want := refNT(t, string(data))
	for _, shards := range []int{1, 2, 4, 8} {
		got, _, err := streamNT(string(data), StreamConfig{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		sameDatasets(t, fmt.Sprintf("museums shards=%d", shards), got, want)
	}
}

// TestParallelIngestDeterministicRandom: seeded random documents, whose
// terms recur across chunk boundaries, at every shard count and at a block
// size far below the document.
func TestParallelIngestDeterministicRandom(t *testing.T) {
	for _, seed := range []int64{1, 7, 4242} {
		doc := randomDocument(seed)
		want := refNT(t, doc)
		for _, shards := range []int{1, 2, 4, 8} {
			for _, blockBytes := range []int{0, 1024} {
				label := fmt.Sprintf("seed=%d shards=%d block=%d", seed, shards, blockBytes)
				got, _, err := streamNT(doc, StreamConfig{Shards: shards, BlockBytes: blockBytes})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameDatasets(t, label, got, want)
			}
		}
	}
}

// TestParallelIngestOddInputs: the chunking edge cases at shard counts up
// to far above the number of lines, and at one-byte blocks.
func TestParallelIngestOddInputs(t *testing.T) {
	for _, in := range oddInputs {
		want := refNT(t, in)
		for _, cfg := range []StreamConfig{{Shards: 1}, {Shards: 2}, {Shards: 4}, {Shards: 8}, {Shards: 64}, {Shards: 64, BlockBytes: 1}} {
			got, _, err := streamNT(in, cfg)
			if err != nil {
				t.Fatalf("%q cfg=%+v: %v", in, cfg, err)
			}
			sameDatasets(t, fmt.Sprintf("%q cfg=%+v", in, cfg), got, want)
		}
	}
}

// TestParallelIngestStrictErrors: strict mode reports the document's first
// malformed line regardless of which shard found it.
func TestParallelIngestStrictErrors(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		checkFirstError(t, fmt.Sprintf("shards=%d", shards), StreamConfig{Shards: shards, BlockBytes: 1})
	}
}

// TestParallelIngestLenientMatchesSequential: skipped lines, their order,
// and the over-cap give-up behavior match the sequential reference reader
// at every shard count.
func TestParallelIngestLenientMatchesSequential(t *testing.T) {
	checkLenient(t,
		[]StreamConfig{{Shards: 1}, {Shards: 3}, {Shards: 8, BlockBytes: 1}},
		[]StreamConfig{{Shards: 1}, {Shards: 4}, {Shards: 8, BlockBytes: 1}})
}
