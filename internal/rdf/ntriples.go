package rdf

import (
	"bufio"
	"fmt"
	"io"
)

// This file holds the N-Triples serialization's
// (https://www.w3.org/TR/n-triples/) error type and writer; the reader is
// StreamNTriples (stream.go). N-Triples is the input format of RDFind
// (App. C). Terms are kept in their surface form — "<uri>", "_:blank", or a
// literal with optional datatype/language tag — so that reading and writing
// round-trip. The paper treats blank nodes as URIs; we keep them as opaque terms,
// which has the same effect.

// SyntaxError describes one malformed N-Triples line, with its 1-based line
// number. It wraps the underlying parse error for errors.Is/As.
type SyntaxError struct {
	Line int
	Err  error
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("ntriples: line %d: %v", e.Line, e.Err) }

// Unwrap exposes the underlying parse error.
func (e *SyntaxError) Unwrap() error { return e.Err }

// DefaultMaxParseErrors is the malformed-line cap of the lenient reader when
// the caller does not set one.
const DefaultMaxParseErrors = 1000

// closingQuote finds the index of the unescaped closing quote of a literal
// that starts at in[0] == '"'.
func closingQuote(in string) int {
	for i := 1; i < len(in); i++ {
		switch in[i] {
		case '\\':
			i++ // skip the escaped character
		case '"':
			return i
		}
	}
	return -1
}

// WriteNTriples serializes a dataset as N-Triples. Terms that do not already
// carry N-Triples syntax (no '<', '"', or "_:" prefix) are wrapped as URIs so
// that programmatically built datasets serialize to valid documents.
func WriteNTriples(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, t := range ds.Triples {
		s := formatTerm(ds.Dict.Decode(t.S))
		p := formatTerm(ds.Dict.Decode(t.P))
		o := formatTerm(ds.Dict.Decode(t.O))
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n", s, p, o); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func formatTerm(term string) string {
	if term == "" {
		return "<>"
	}
	switch term[0] {
	case '<', '"', '_':
		return term
	}
	return "<" + term + ">"
}
