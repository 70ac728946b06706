// Package rdf provides the RDF data model used throughout the repository:
// triples of subject, predicate, and object terms, a string dictionary that
// encodes terms as dense integer IDs, and a reader/writer for the N-Triples
// serialization.
//
// Following the paper (§2), blank nodes are treated as URIs and objects may
// be literals. All downstream algorithms operate on dictionary-encoded
// triples for compactness; the dictionary restores the surface form when
// results are rendered.
package rdf

import "fmt"

// Attr identifies one of the three elements of a triple. The paper uses
// α, β, γ to range over these.
type Attr uint8

const (
	Subject Attr = iota
	Predicate
	Object
)

// AttrNone marks an absent attribute, e.g. the second condition slot of a
// unary condition.
const AttrNone Attr = 0xFF

// String returns the single-letter name used in the paper ("s", "p", "o").
func (a Attr) String() string {
	switch a {
	case Subject:
		return "s"
	case Predicate:
		return "p"
	case Object:
		return "o"
	case AttrNone:
		return "-"
	}
	return fmt.Sprintf("attr(%d)", uint8(a))
}

// Attrs lists the three triple elements in canonical order.
var Attrs = [3]Attr{Subject, Predicate, Object}

// Others returns the two attributes that are not a, in canonical order.
// It corresponds to the paper's choice of condition attributes β and γ for a
// projection attribute α.
func (a Attr) Others() (Attr, Attr) {
	switch a {
	case Subject:
		return Predicate, Object
	case Predicate:
		return Subject, Object
	default:
		return Subject, Predicate
	}
}

// Value is a dictionary-encoded RDF term. Discovery accepts ids up to
// MaxValue only: the scan path packs two of them beside a 2-bit attribute
// pair into one uint64 key, and rejects a triple with a larger id with an
// *IDSpaceError. Dictionary.Encode itself neither checks that limit nor the
// wrap of its counter at 2³² terms — a dictionary that large (≥ 40 B/term)
// does not fit the memory of a process that could run discovery on it.
type Value uint32

// NoValue marks an absent term slot.
const NoValue Value = 0xFFFFFFFF

// MaxValue is the largest term id discovery accepts (2³¹−1).
const MaxValue Value = 1<<31 - 1

// IDSpaceError reports a triple whose term id exceeds MaxValue.
type IDSpaceError struct{ ID Value }

func (e *IDSpaceError) Error() string {
	return fmt.Sprintf("rdf: term id %d exceeds the discovery id space (max %d)", e.ID, MaxValue)
}

// Triple is a dictionary-encoded RDF statement (s, p, o).
type Triple struct {
	S, P, O Value
}

// Get projects the triple on one element, t.α in the paper's notation.
func (t Triple) Get(a Attr) Value {
	switch a {
	case Subject:
		return t.S
	case Predicate:
		return t.P
	default:
		return t.O
	}
}

// Dataset is a dictionary plus the triples encoded against it. It is the
// unit of input for discovery runs and generators.
type Dataset struct {
	Dict    *Dictionary
	Triples []Triple
}

// NewDataset returns an empty dataset with a fresh dictionary.
func NewDataset() *Dataset {
	return &Dataset{Dict: NewDictionary()}
}

// Add encodes and appends one triple given by surface forms.
func (d *Dataset) Add(s, p, o string) {
	d.Triples = append(d.Triples, Triple{
		S: d.Dict.Encode(s),
		P: d.Dict.Encode(p),
		O: d.Dict.Encode(o),
	})
}

// AddTriple appends an already-encoded triple.
func (d *Dataset) AddTriple(t Triple) { d.Triples = append(d.Triples, t) }

// Size returns the number of triples.
func (d *Dataset) Size() int { return len(d.Triples) }

// String renders a triple against a dictionary, for diagnostics.
func (t Triple) String(dict *Dictionary) string {
	return fmt.Sprintf("(%s, %s, %s)", dict.Decode(t.S), dict.Decode(t.P), dict.Decode(t.O))
}
