package rdf

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestFaultStrictParseErrorCarriesLineNumber(t *testing.T) {
	doc := "<a> <b> <c> .\n# comment\n\n<a> <b> garbage .\n<d> <e> <f> .\n"
	_, _, err := streamNT(doc, StreamConfig{})
	if err == nil {
		t.Fatal("malformed line parsed")
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T (%v), want *SyntaxError", err, err)
	}
	if se.Line != 4 {
		t.Errorf("Line = %d, want 4 (comments and blanks count)", se.Line)
	}
	if !strings.Contains(err.Error(), "line 4") || !strings.HasPrefix(err.Error(), "ntriples:") {
		t.Errorf("error message %q should name the line", err)
	}
	if se.Unwrap() == nil {
		t.Error("SyntaxError must wrap its cause")
	}
}

func TestFaultLenientSkipsMalformedLines(t *testing.T) {
	doc := strings.Join([]string{
		"<a> <b> <c> .",
		"not a triple",
		`<a> <b> "lit"@en .`,
		"<a> <b> <c>",         // missing terminator
		`<x> "unterminated .`, // bad literal
		"<d> <e> <f> .",
	}, "\n")
	ds, malformed, err := streamNT(doc, StreamConfig{Lenient: true, MaxErrors: 10})
	if err != nil {
		t.Fatalf("lenient mode aborted: %v", err)
	}
	if got := len(ds.Triples); got != 3 {
		t.Errorf("parsed %d triples, want 3", got)
	}
	if len(malformed) != 3 {
		t.Fatalf("reported %d malformed lines, want 3: %v", len(malformed), malformed)
	}
	for i, wantLine := range []int{2, 4, 5} {
		if malformed[i].Line != wantLine {
			t.Errorf("malformed[%d].Line = %d, want %d", i, malformed[i].Line, wantLine)
		}
	}
}

func TestFaultLenientErrorCapGivesUp(t *testing.T) {
	var b strings.Builder
	b.WriteString("<a> <b> <c> .\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "garbage line %d\n", i)
	}
	ds, _, err := streamNT(b.String(), StreamConfig{Lenient: true, MaxErrors: 5})
	if err == nil {
		t.Fatal("exceeding the malformed-line cap must fail")
	}
	if ds != nil {
		t.Error("a capped-out parse must not return a dataset")
	}
	// Lines 2–6 fill the cap; line 7 is the first one over it.
	if !strings.Contains(err.Error(), "more than 5 malformed lines, giving up (line 7:") {
		t.Errorf("error %q should mention the cap and the line over it", err)
	}
}

func TestFaultLenientDefaultsCap(t *testing.T) {
	// Non-positive caps select the default; a clean document is unaffected.
	ds, malformed, err := streamNT("<a> <b> <c> .\n", StreamConfig{Lenient: true})
	if err != nil || len(malformed) != 0 || len(ds.Triples) != 1 {
		t.Errorf("clean parse: ds=%v malformed=%v err=%v", ds, malformed, err)
	}
	if DefaultMaxParseErrors < 1 {
		t.Errorf("DefaultMaxParseErrors = %d", DefaultMaxParseErrors)
	}
}

func TestFaultLenientAgreesWithStrictOnCleanInput(t *testing.T) {
	doc := "<a> <p> <b> .\n<b> <p> <c> .\n<c> <q> \"v\"^^<t> .\n"
	strict, _, err := streamNT(doc, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lenient, malformed, err := streamNT(doc, StreamConfig{Lenient: true})
	if err != nil || len(malformed) != 0 {
		t.Fatalf("lenient parse of clean input: malformed=%v err=%v", malformed, err)
	}
	if len(strict.Triples) != len(lenient.Triples) {
		t.Fatalf("strict parsed %d triples, lenient %d", len(strict.Triples), len(lenient.Triples))
	}
	for i := range strict.Triples {
		s, l := strict.Triples[i], lenient.Triples[i]
		for _, a := range Attrs {
			if strict.Dict.Decode(s.Get(a)) != lenient.Dict.Decode(l.Get(a)) {
				t.Errorf("triple %d attr %v differs", i, a)
			}
		}
	}
}
