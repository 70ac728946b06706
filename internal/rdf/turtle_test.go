package rdf

import (
	"strings"
	"testing"
)

func term(t *testing.T, ds *Dataset, tr Triple, a Attr) string {
	t.Helper()
	return ds.Dict.Decode(tr.Get(a))
}

func TestReadTurtleBasics(t *testing.T) {
	doc := `
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .

ex:patrick rdf:type ex:gradStudent .
ex:patrick ex:memberOf ex:csd .
`
	ds, err := streamTTL(doc, turtleWindow)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Size() != 2 {
		t.Fatalf("Size = %d, want 2", ds.Size())
	}
	if got := term(t, ds, ds.Triples[0], Subject); got != "<http://example.org/patrick>" {
		t.Errorf("subject = %q", got)
	}
	if got := term(t, ds, ds.Triples[0], Predicate); got != "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>" {
		t.Errorf("predicate = %q", got)
	}
}

func TestReadTurtleAKeywordAndLists(t *testing.T) {
	doc := `
@prefix ex: <http://ex.org/> .
ex:patrick a ex:GradStudent ;
    ex:memberOf ex:csd , ex:lab ;
    ex:age 27 .
`
	ds, err := streamTTL(doc, turtleWindow)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Size() != 4 {
		t.Fatalf("Size = %d, want 4 (a + two memberOf + age)", ds.Size())
	}
	if got := term(t, ds, ds.Triples[0], Predicate); got != "<"+rdfType+">" {
		t.Errorf("'a' expanded to %q", got)
	}
	// Object list: two memberOf triples with the same predicate.
	n := 0
	for _, tr := range ds.Triples {
		if term(t, ds, tr, Predicate) == "<http://ex.org/memberOf>" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("object list produced %d memberOf triples, want 2", n)
	}
	// Bare integer became a typed literal.
	last := ds.Triples[3]
	if got := term(t, ds, last, Object); got != `"27"^^<`+xsdInteger+`>` {
		t.Errorf("bare integer = %q", got)
	}
}

func TestReadTurtleLiterals(t *testing.T) {
	doc := `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:name "Patrick" .
ex:a ex:label "hallo"@de .
ex:a ex:height "1.86"^^xsd:decimal .
ex:a ex:weight 72.5 .
ex:a ex:active true .
`
	ds, err := streamTTL(doc, turtleWindow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`"Patrick"`,
		`"hallo"@de`,
		`"1.86"^^<http://www.w3.org/2001/XMLSchema#decimal>`,
		`"72.5"^^<` + xsdDecimal + `>`,
		`"true"^^<` + xsdBoolean + `>`,
	}
	for i, w := range want {
		if got := term(t, ds, ds.Triples[i], Object); got != w {
			t.Errorf("object %d = %q, want %q", i, got, w)
		}
	}
}

func TestReadTurtleBlankNodesAndBase(t *testing.T) {
	doc := `
@base <http://base.org/> .
@prefix ex: <http://ex.org/> .
_:b1 ex:linksTo <relative> .
<relative> ex:linksTo _:b1 .
`
	ds, err := streamTTL(doc, turtleWindow)
	if err != nil {
		t.Fatal(err)
	}
	if got := term(t, ds, ds.Triples[0], Subject); got != "_:b1" {
		t.Errorf("blank node = %q", got)
	}
	if got := term(t, ds, ds.Triples[0], Object); got != "<http://base.org/relative>" {
		t.Errorf("base resolution = %q", got)
	}
}

func TestReadTurtleSparqlStyleDirectives(t *testing.T) {
	doc := `
PREFIX ex: <http://ex.org/>
BASE <http://base.org/>
ex:a ex:p <rel> .
`
	ds, err := streamTTL(doc, turtleWindow)
	if err != nil {
		t.Fatal(err)
	}
	if got := term(t, ds, ds.Triples[0], Object); got != "<http://base.org/rel>" {
		t.Errorf("object = %q", got)
	}
}

func TestReadTurtleInteroperatesWithNTriples(t *testing.T) {
	// A dataset read from Turtle must serialize to N-Triples and re-parse.
	doc := `
@prefix ex: <http://ex.org/> .
ex:s ex:p ex:o ; ex:q "lit"@en .
`
	ds, err := streamTTL(doc, turtleWindow)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteNTriples(&b, ds); err != nil {
		t.Fatal(err)
	}
	back, _, err := streamNT(b.String(), StreamConfig{})
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, b.String())
	}
	if back.Size() != ds.Size() {
		t.Errorf("round trip changed size: %d -> %d", ds.Size(), back.Size())
	}
}

func TestReadTurtleErrors(t *testing.T) {
	bad := map[string]string{
		"undeclared prefix":  `ex:a ex:p ex:o .`,
		"missing dot":        "@prefix ex: <http://e/> .\nex:a ex:p ex:o",
		"anon blank node":    "@prefix ex: <http://e/> .\nex:a ex:p [ ex:q ex:o ] .",
		"collection":         "@prefix ex: <http://e/> .\nex:a ex:p (1 2) .",
		"unterminated IRI":   `<http://e ex:p ex:o .`,
		"unterminated lit":   "@prefix ex: <http://e/> .\nex:a ex:p \"open .",
		"bad number":         "@prefix ex: <http://e/> .\nex:a ex:p + .",
		"prefix without IRI": `@prefix ex: nope .`,
	}
	for name, doc := range bad {
		if _, err := streamTTL(doc, turtleWindow); err == nil {
			t.Errorf("%s: no error for %q", name, doc)
		}
	}
}
