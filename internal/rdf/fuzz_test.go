package rdf

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadTriple checks two properties of the N-Triples reader on arbitrary
// input: lenient streaming never panics and agrees with the reference reader
// (it may reject documents, never crash), and whatever it parses survives a
// write→reparse round-trip term for term. The reader keeps terms in surface
// form, so the writer must emit exactly what the strict reader accepts.
func FuzzReadTriple(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		"<http://example.org/s> <http://example.org/p> <http://example.org/o> .",
		"<http://example.org/altes_museum> <http://example.org/located> <http://example.org/berlin> .\n" +
			"<http://example.org/berlin> <http://example.org/cityIn> <http://example.org/germany> .",
		"_:b0 <http://example.org/p> _:b1 .",
		`<s> <p> "plain literal" .`,
		`<s> <p> "escaped \" quote" .`,
		`<s> <p> "trailing backslash \\" .`,
		`<s> <p> "typed"^^<http://www.w3.org/2001/XMLSchema#string> .`,
		`<s> <p> "tagged"@en-US .`,
		`<s> <p> "héllo wörld ☃" .`,
		`<s> <p> "dot inside . and # hash" .`,
		"<a><b><c>.",
		`<s> <p> "no space".`,
		"  <s>\t<p>\t<o>\t.  ",
		"<s> <p> <o>",            // missing dot
		`<s> <p> "unterminated`,  // unterminated literal
		"<s> <p> <unterminated",  // unterminated URI
		`<s> <p> "t"^^<no-close`, // unterminated datatype
		"just some text\nacross lines\n",
		"<ok> <ok> <ok> .\nbroken line\n<ok2> <ok2> <ok2> .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// One seed produced by the writer itself, covering term wrapping.
	ds := NewDataset()
	ds.Add("bare-term", "p", `"lit"@de`)
	ds.Add("<u>", "_:b", `"x\ny"`)
	var b bytes.Buffer
	if err := WriteNTriples(&b, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())

	f.Fuzz(func(t *testing.T, input string) {
		lenient := StreamConfig{Shards: 4, BlockBytes: 64, Lenient: true, MaxErrors: 50}
		parsed, malformed, err := streamNT(input, lenient)
		want, wantMalformed, wantErr := readNTriples(strings.NewReader(input), 50, true)
		if !sameError(err, wantErr) {
			t.Fatalf("lenient error diverged from the reference: %v vs %v", err, wantErr)
		}
		if err != nil {
			return // over the malformed-line cap
		}
		for _, se := range malformed {
			if se == nil || se.Line <= 0 || se.Err == nil {
				t.Fatalf("malformed report without position or cause: %v", se)
			}
		}
		sameReports(t, "lenient", malformed, wantMalformed)
		sameDatasets(t, "lenient", parsed, want)

		// Round-trip: write what was parsed, reparse strictly, compare terms.
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, parsed); err != nil {
			t.Fatalf("write failed on parsed dataset: %v", err)
		}
		back, _, err := streamNT(buf.String(), StreamConfig{})
		if err != nil {
			t.Fatalf("strict reparse of written output failed: %v\ndocument:\n%s", err, buf.String())
		}
		if len(back.Triples) != len(parsed.Triples) {
			t.Fatalf("round-trip changed triple count: %d -> %d\ndocument:\n%s",
				len(parsed.Triples), len(back.Triples), buf.String())
		}
		for i := range parsed.Triples {
			p, q := parsed.Triples[i], back.Triples[i]
			ps := [3]string{parsed.Dict.Decode(p.S), parsed.Dict.Decode(p.P), parsed.Dict.Decode(p.O)}
			qs := [3]string{back.Dict.Decode(q.S), back.Dict.Decode(q.P), back.Dict.Decode(q.O)}
			if ps != qs {
				t.Fatalf("round-trip changed triple %d: %q -> %q", i, ps, qs)
			}
		}
	})
}

// FuzzReaderParity pins the document-level contract between the reference
// reader and StreamNTriples: over any input they must agree *exactly* — same
// dataset (triples, dictionary IDs, decoded terms), same malformed-line
// reports, and same error text — in strict and lenient mode, at every shard
// count and block size, including the over-cap rejection path. The only
// documented divergence is the reference scanner's 16 MiB line cap, which
// fuzz inputs cannot reach.
func FuzzReaderParity(f *testing.F) {
	seeds := []string{
		"",
		"\n",
		"\r\n",
		"<s> <p> <o> .",                       // no trailing newline
		"<s> <p> <o> .\n",                     // trailing newline
		"<s> <p> <o> .\r\n<s2> <p> <o> .\r\n", // CRLF throughout
		"<s> <p> <o> .\n<s2> <p> <o> .\r\n",   // mixed line endings
		"<s> <p> <o> .\r",                     // stray CR, no LF
		"# comment\n\n   \t\n<s> <p> <o> .\n",
		`<s> <p> "lit with \" escape"@en .` + "\n" + `<s> <p> "typed"^^<t> .`,
		"_:b0 <p> _:b1 .\n<a><b><c>.",
		// Malformed runs that cross the tiny lenient cap used below.
		"bad\nbad\nbad\nbad\nbad\n",
		"bad\n<ok> <ok> <ok> .\nbad\nbad\nbad\nbad\n<ok2> <ok2> <ok2> .",
		"<s> <p> <o>\n<s> <p> \"unterminated\n<s> <p> <unterminated\n",
		strings.Repeat("<s> <p> <o> .\n", 9) + "broken .\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, input string) {
		// A tiny lenient cap, so fuzzed inputs routinely cross it.
		const errCap = 3
		for _, lenient := range []bool{false, true} {
			want, wantMalformed, wantErr := readNTriples(strings.NewReader(input), errCap, lenient)
			for _, shards := range []int{1, 2, 4, 8} {
				for _, blockBytes := range []int{1, 7, 64, 1 << 20} {
					cfg := StreamConfig{Shards: shards, BlockBytes: blockBytes, Lenient: lenient, MaxErrors: errCap}
					label := fmt.Sprintf("cfg=%+v", cfg)
					got, malformed, err := streamNT(input, cfg)
					if !sameError(err, wantErr) {
						t.Fatalf("%s: error diverged: %v vs %v", label, err, wantErr)
					}
					if wantErr == nil {
						sameReports(t, label, malformed, wantMalformed)
						sameDatasets(t, label, got, want)
					}
				}
			}
		}
	})
}

// FuzzStreamTurtle pins the Turtle window parser's retry logic: whatever the
// input, the dataset and the error must not depend on where the window edges
// fall, from windows that cut nearly every token to one that holds the whole
// document. Regressions found by the fuzzer replay from testdata/fuzz.
func FuzzStreamTurtle(f *testing.F) {
	for _, s := range []string{
		turtleStreamDoc,
		"@base<0>.<><><>.",
		"PREFIX p: <x>\np:a p:b 1.25 , -7 , \"l\"@en-US ; a p:c .\n",
		"@prefix p: <x> .\n# comment\np:a p:b \"q\\\"\"^^p:t .",
		"@prefix p: <x> . p:a p:b 1.2.3 .",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := streamTTL(input, 1<<20)
		for _, window := range []int{16, 23, 64} {
			got, err := streamTTL(input, window)
			if !sameError(err, wantErr) {
				t.Fatalf("window=%d: error diverged: %v vs %v", window, err, wantErr)
			}
			if wantErr == nil {
				sameDatasets(t, fmt.Sprintf("window=%d", window), got, want)
			}
		}
	})
}

// sameError reports whether two reader errors are interchangeable: both nil,
// or both non-nil with identical text.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// sameReports asserts two malformed-line report lists are identical.
func sameReports(t *testing.T, label string, got, want []*SyntaxError) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d malformed reports, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Error() != want[i].Error() {
			t.Fatalf("%s: malformed report %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}
