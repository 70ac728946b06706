package rdf

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// collect folds the blocks a streaming reader emits into one Dataset, the
// way Resolved.ReadDataset does, and gathers the lenient malformed-line
// reports in document order. On error the dataset is nil.
func collect(stream func(emit func(*TermBlock) error) error) (*Dataset, []*SyntaxError, error) {
	ds := NewDataset()
	var errs []*SyntaxError
	var remap []Value
	err := stream(func(blk *TermBlock) error {
		remap = ds.AppendBlock(blk, remap)
		errs = append(errs, blk.Errs...)
		return nil
	})
	if err != nil {
		return nil, errs, err
	}
	return ds, errs, nil
}

// streamNT reads an N-Triples document through StreamNTriples.
func streamNT(in string, cfg StreamConfig) (*Dataset, []*SyntaxError, error) {
	return collect(func(emit func(*TermBlock) error) error {
		return StreamNTriples(strings.NewReader(in), cfg, emit)
	})
}

// streamTTL reads a Turtle document through a window of the given size, in
// blocks of three triples so block edges fall inside statements' output.
func streamTTL(in string, window int) (*Dataset, error) {
	ds, _, err := collect(func(emit func(*TermBlock) error) error {
		return streamTurtle(strings.NewReader(in), window, 3, emit)
	})
	return ds, err
}

// refNT reads an N-Triples document through the reference reader.
func refNT(t *testing.T, in string) *Dataset {
	t.Helper()
	ds, _, err := readNTriples(strings.NewReader(in), 0, false)
	if err != nil {
		t.Fatalf("reference reader: %v", err)
	}
	return ds
}

// sameDatasets asserts full dataset equality: the dictionary's ID
// assignment and the encoded triple sequence.
func sameDatasets(t *testing.T, label string, got, want *Dataset) {
	t.Helper()
	if got.Size() != want.Size() || got.Dict.Len() != want.Dict.Len() {
		t.Fatalf("%s: %d triples/%d terms, want %d/%d",
			label, got.Size(), got.Dict.Len(), want.Size(), want.Dict.Len())
	}
	for id := 0; id < want.Dict.Len(); id++ {
		if g, w := got.Dict.Decode(Value(id)), want.Dict.Decode(Value(id)); g != w {
			t.Fatalf("%s: term %d = %q, want %q", label, id, g, w)
		}
	}
	for i := range want.Triples {
		if got.Triples[i] != want.Triples[i] {
			t.Fatalf("%s: triple %d = %+v, want %+v", label, i, got.Triples[i], want.Triples[i])
		}
	}
}

// TestStreamNTriplesParity: streamed ingest reproduces the reference
// reader's dictionary IDs and triple order at every shard count and block
// size, including block sizes far below a line length.
func TestStreamNTriplesParity(t *testing.T) {
	data, err := os.ReadFile("../../cmd/rdfind/testdata/museums.nt")
	if err != nil {
		t.Fatal(err)
	}
	want := refNT(t, string(data))
	for _, shards := range []int{1, 2, 4} {
		for _, blockBytes := range []int{7, 64, 1024, 1 << 20} {
			label := fmt.Sprintf("shards=%d block=%d", shards, blockBytes)
			got, errs, err := streamNT(string(data), StreamConfig{Shards: shards, BlockBytes: blockBytes})
			if err != nil || len(errs) != 0 {
				t.Fatalf("%s: errs=%v err=%v", label, errs, err)
			}
			sameDatasets(t, label, got, want)
		}
	}
}

// TestStreamNTriplesOddInputs covers chunking edge cases: inputs smaller
// than the block, blank and comment lines, no trailing newline, CRLF.
func TestStreamNTriplesOddInputs(t *testing.T) {
	for _, in := range oddInputs {
		want := refNT(t, in)
		for _, cfg := range []StreamConfig{{}, {Shards: 4, BlockBytes: 5}, {Shards: 2, BlockBytes: 37}} {
			got, _, err := streamNT(in, cfg)
			if err != nil {
				t.Fatalf("%q cfg=%+v: %v", in, cfg, err)
			}
			sameDatasets(t, fmt.Sprintf("%q cfg=%+v", in, cfg), got, want)
		}
	}
}

// TestStreamNTriplesStrictError: strict streaming reports the document's
// first malformed line regardless of which block found it.
func TestStreamNTriplesStrictError(t *testing.T) {
	for _, cfg := range []StreamConfig{{}, {Shards: 4, BlockBytes: 8}, {Shards: 2, BlockBytes: 1}} {
		checkFirstError(t, fmt.Sprintf("cfg=%+v", cfg), cfg)
	}
}

// TestStreamNTriplesLenientParity: lenient streaming reports the same
// skipped lines as the reference lenient reader, and over the cap gives up
// with the identical error message.
func TestStreamNTriplesLenientParity(t *testing.T) {
	checkLenient(t, []StreamConfig{{}, {Shards: 3, BlockBytes: 6}}, []StreamConfig{{}, {Shards: 4, BlockBytes: 4}})
}

// TestStreamNTriplesEmitStop: a non-nil error from emit stops the stream
// and is returned unchanged.
func TestStreamNTriplesEmitStop(t *testing.T) {
	in := bytes.Repeat([]byte("<s> <p> <o> .\n"), 1000)
	stop := fmt.Errorf("enough")
	blocks := 0
	err := StreamNTriples(bytes.NewReader(in), StreamConfig{BlockBytes: 64}, func(*TermBlock) error {
		blocks++
		if blocks == 3 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("err = %v, want %v", err, stop)
	}
	if blocks != 3 {
		t.Fatalf("emit called %d times after stop, want 3", blocks)
	}
}

// TestStreamNTriplesBlockBytes: the per-block input-byte accounting sums to
// the document length.
func TestStreamNTriplesBlockBytes(t *testing.T) {
	in := bytes.Repeat([]byte("<s> <p> <o> .\n"), 500)
	total := 0
	err := StreamNTriples(bytes.NewReader(in), StreamConfig{Shards: 3, BlockBytes: 100}, func(blk *TermBlock) error {
		total += blk.Bytes
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(in) {
		t.Fatalf("block bytes sum to %d, want %d", total, len(in))
	}
}

// turtleStreamDoc exercises every supported construct: directives, 'a',
// predicate and object lists, blank nodes, literals with language tags and
// datatypes, bare numerics and booleans, comments, and SPARQL-style
// directives.
const turtleStreamDoc = `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
@base <http://base.org/> .

# a comment between statements
ex:patrick a ex:GradStudent ;
    ex:memberOf ex:csd , ex:lab ;
    foaf:name "Patrick" ;
    ex:label "hallo"@de-AT ;
    ex:height "1.86"^^xsd:decimal ;
    ex:weight 72.5 ;
    ex:age 27 ;
    ex:active true .
_:b1 ex:knows _:b2 .
<relative> ex:seeAlso <#frag> .
ex:last ex:prop "v" .
`

// TestStreamTurtleParity: the windowed incremental parser produces exactly
// the statements of a whole-document parse at any window size and block
// size, including windows small enough to force a refill-and-retry inside
// nearly every statement.
func TestStreamTurtleParity(t *testing.T) {
	want, err := streamTTL(turtleStreamDoc, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{16, 23, 64, 256, 64 << 10} {
		for _, blockTriples := range []int{1, 3, 4096} {
			got, _, err := collect(func(emit func(*TermBlock) error) error {
				return streamTurtle(strings.NewReader(turtleStreamDoc), window, blockTriples, emit)
			})
			label := fmt.Sprintf("window=%d block=%d", window, blockTriples)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameDatasets(t, label, got, want)
		}
	}
}

// TestStreamTurtleDirectiveAtWindowEdge: a directive that ends just before a
// non-final window edge is parsed twice (the retry guards against truncated
// tokens), and the second parse must see the parser state of the first. A
// relative @base or BASE re-resolved against its own value used to apply
// twice; a relative @prefix is resolved against the base, so re-applying it
// is idempotent.
func TestStreamTurtleDirectiveAtWindowEdge(t *testing.T) {
	if got, err := streamTTL("@base<0>.<><><>.", 16); err != nil || got.Dict.Decode(0) != "<0>" {
		t.Fatalf("minimal case: term 0 = %q, err %v; want <0>", got.Dict.Decode(0), err)
	}
	cases := []struct{ head, tail, want string }{
		{"@base <http://x/a/> .\n", "@base <b/> .\n<s> <p> <o> .\n", "<http://x/a/b/s>"},
		{"BASE <http://x/a/>\n", "BASE <b/>\n<s> <p> <o> .\n", "<http://x/a/b/s>"},
		{"@base <http://x/> .\n", "@prefix ex: <a/> .\nex:s ex:p ex:o .\n", "<http://x/a/s>"},
		{"@base <http://x/> .\n@prefix ex: <y/> .\n", "@prefix ex: <a/> .\nex:s ex:p ex:o .\n", "<http://x/a/s>"},
	}
	for _, c := range cases {
		// Slide the second directive across every offset of the edge.
		for _, window := range []int{16, 23, 64} {
			for pad := 0; pad <= window; pad++ {
				doc := c.head + "#" + strings.Repeat("x", pad) + "\n" + c.tail
				got, err := streamTTL(doc, window)
				if err != nil || got.Dict.Decode(0) != c.want {
					t.Fatalf("window=%d pad=%d %q: subject %q, err %v; want %s", window, pad, doc, got.Dict.Decode(0), err, c.want)
				}
			}
		}
	}
	// The same edge at the default 64 KiB window, where the second
	// directive's '.' lands 0–9 bytes before the second refill's end.
	for gap := 0; gap < 10; gap++ {
		head := "@base <http://x/a/> .\n"
		tail := "@base <b/> ."
		pad := 2*turtleWindow - gap - len(head) - len(tail) - 1
		doc := head + "#" + strings.Repeat("x", pad-1) + "\n" + tail + "\n<s> <p> <o> .\n"
		got, _, err := collect(func(emit func(*TermBlock) error) error {
			return StreamTurtle(strings.NewReader(doc), StreamConfig{}, emit)
		})
		if err != nil || got.Dict.Decode(0) != "<http://x/a/b/s>" {
			t.Fatalf("gap=%d: subject %q, err %v; want <http://x/a/b/s>", gap, got.Dict.Decode(0), err)
		}
	}
}

// TestStreamTurtleLargeStatementGrowsWindow: a statement longer than the
// window parses by transiently growing it.
func TestStreamTurtleLargeStatementGrowsWindow(t *testing.T) {
	long := strings.Repeat("x", 4096)
	doc := "@prefix ex: <http://e.org/> .\nex:s ex:p \"" + long + "\" .\n"
	got, err := streamTTL(doc, 32)
	if err != nil {
		t.Fatal(err)
	}
	if o := got.Dict.Decode(got.Triples[0].O); o != `"`+long+`"` {
		t.Fatalf("long literal came back as %d bytes", len(o))
	}
}

// TestStreamTurtleErrors: real syntax errors still surface (with their line
// numbers) rather than being mistaken for window truncation.
func TestStreamTurtleErrors(t *testing.T) {
	cases := map[string]string{
		"@prefix ex: <http://e.org/> .\nex:s ex:p ex:o ,, .\n": "turtle: line 2: malformed object at \", .\\n\"",
		"ex:s ex:p ex:o .\n": `turtle: line 1: undeclared prefix "ex"`,
		"@prefix ex: <http://e.org/> .\nex:s ex:p [ ex:q ex:r ] .\n": `turtle: line 2: anonymous blank nodes '[...]' are not supported`,
	}
	for doc, want := range cases {
		for _, window := range []int{16, 64 << 10} {
			if _, err := streamTTL(doc, window); err == nil || err.Error() != want {
				t.Errorf("%q window=%d: err %v, want %s", doc, window, err, want)
			}
		}
	}
}

// TestStreamTurtleBlockBytes: per-block byte accounting covers the document.
func TestStreamTurtleBlockBytes(t *testing.T) {
	total := 0
	err := streamTurtle(strings.NewReader(turtleStreamDoc), 64, 2, func(blk *TermBlock) error {
		total += blk.Bytes
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Trailing whitespace after the last statement is not attributed to any
	// block, so the sum covers the document up to the final '.'.
	if last := strings.LastIndexByte(turtleStreamDoc, '.'); total < last+1 || total > len(turtleStreamDoc) {
		t.Fatalf("block bytes sum to %d, want within [%d, %d]", total, last+1, len(turtleStreamDoc))
	}
}
