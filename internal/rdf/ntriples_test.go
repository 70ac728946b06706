package rdf

import (
	"bytes"
	"testing"
)

func TestReadNTriplesBasic(t *testing.T) {
	doc := `
# University example, Table 1 of the paper.
<http://ex.org/patrick> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/gradStudent> .
<http://ex.org/mike> <http://ex.org/undergradFrom> <http://ex.org/cmu> .

_:b0 <http://ex.org/label> "a literal" .
`
	ds, _, err := streamNT(doc, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Size() != 3 {
		t.Fatalf("Size = %d, want 3", ds.Size())
	}
	if got := ds.Dict.Decode(ds.Triples[2].S); got != "_:b0" {
		t.Errorf("blank node subject = %q", got)
	}
	if got := ds.Dict.Decode(ds.Triples[2].O); got != `"a literal"` {
		t.Errorf("literal object = %q", got)
	}
}

func TestReadNTriplesLiteralVariants(t *testing.T) {
	doc := `<a:s> <a:p> "plain" .
<a:s> <a:p> "typed"^^<http://www.w3.org/2001/XMLSchema#int> .
<a:s> <a:p> "tagged"@en .
<a:s> <a:p> "esc \" quote" .
<a:s> <a:p> "dot . inside" .
`
	ds, _, err := streamNT(doc, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`"plain"`,
		`"typed"^^<http://www.w3.org/2001/XMLSchema#int>`,
		`"tagged"@en`,
		`"esc \" quote"`,
		`"dot . inside"`,
	}
	for i, w := range want {
		if got := ds.Dict.Decode(ds.Triples[i].O); got != w {
			t.Errorf("object %d = %q, want %q", i, got, w)
		}
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	bad := []string{
		`<a:s> <a:p> <a:o>`,           // missing dot
		`<a:s> <a:p> .`,               // missing object
		`<a:s <a:p> <a:o> .`,          // unterminated URI
		`<a:s> <a:p> "open .`,         // unterminated literal
		`<a:s> <a:p> "x"^^<broken .`,  // unterminated datatype
		`<a:s> <a:p> <a:o> . trailer`, // junk after dot
		`!bang <a:p> <a:o> .`,         // bad first character
	}
	for _, doc := range bad {
		if _, _, err := streamNT(doc, StreamConfig{}); err == nil {
			t.Errorf("no error for malformed line %q", doc)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	ds := NewDataset()
	ds.Add("<a:patrick>", "<a:type>", "<a:gradStudent>")
	ds.Add("_:b1", "<a:label>", `"hello \"world\""`)
	ds.Add("<a:mike>", "<a:age>", `"29"^^<http://www.w3.org/2001/XMLSchema#int>`)

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, _, err := streamNT(buf.String(), StreamConfig{})
	if err != nil {
		t.Fatalf("re-parse failed: %v\ndocument:\n%s", err, buf.String())
	}
	if back.Size() != ds.Size() {
		t.Fatalf("round trip changed size: %d -> %d", ds.Size(), back.Size())
	}
	for i := range ds.Triples {
		for _, a := range Attrs {
			orig := ds.Dict.Decode(ds.Triples[i].Get(a))
			got := back.Dict.Decode(back.Triples[i].Get(a))
			if orig != got {
				t.Errorf("triple %d attr %v: %q -> %q", i, a, orig, got)
			}
		}
	}
}

func TestWriteNTriplesWrapsBareTerms(t *testing.T) {
	ds := NewDataset()
	ds.Add("patrick", "memberOf", "csd")
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, ds); err != nil {
		t.Fatal(err)
	}
	want := "<patrick> <memberOf> <csd> .\n"
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
	if _, _, err := streamNT(buf.String(), StreamConfig{}); err != nil {
		t.Errorf("written document does not re-parse: %v", err)
	}
}
