package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file keeps the string-based sequential N-Triples reader this package
// had before StreamNTriples became its only reader, as the reference the
// parity tests and fuzzers compare the streaming reader against: one
// bufio.Scanner line at a time, each line materialized as a string and split
// by its own term scanner. Lenient mode expects a positive maxErrors.

// readNTriples is the shared scanning loop of the strict and lenient modes.
func readNTriples(r io.Reader, maxErrors int, lenient bool) (*Dataset, []*SyntaxError, error) {
	ds := NewDataset()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	var malformed []*SyntaxError
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, err := parseNTriplesLine(line)
		if err != nil {
			serr := &SyntaxError{Line: lineNo, Err: err}
			if !lenient {
				return nil, nil, serr
			}
			malformed = append(malformed, serr)
			if len(malformed) > maxErrors {
				return nil, malformed[:maxErrors], fmt.Errorf(
					"ntriples: more than %d malformed lines, giving up (line %d: %v)",
					maxErrors, lineNo, err)
			}
			continue
		}
		ds.Add(s, p, o)
	}
	if err := sc.Err(); err != nil {
		return nil, malformed, fmt.Errorf("ntriples: %w", err)
	}
	return ds, malformed, nil
}

// parseNTriplesLine splits one statement into its three terms.
func parseNTriplesLine(line string) (s, p, o string, err error) {
	rest := line
	if s, rest, err = scanTerm(rest); err != nil {
		return "", "", "", fmt.Errorf("subject: %w", err)
	}
	if p, rest, err = scanTerm(rest); err != nil {
		return "", "", "", fmt.Errorf("predicate: %w", err)
	}
	if o, rest, err = scanTerm(rest); err != nil {
		return "", "", "", fmt.Errorf("object: %w", err)
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		return "", "", "", fmt.Errorf("expected terminating '.', got %q", rest)
	}
	return s, p, o, nil
}

// scanTerm consumes one term (URI, blank node, or literal) from the front of
// the input and returns it with the unconsumed remainder.
func scanTerm(in string) (term, rest string, err error) {
	in = strings.TrimLeft(in, " \t")
	if in == "" {
		return "", "", fmt.Errorf("unexpected end of line")
	}
	switch in[0] {
	case '<':
		end := strings.IndexByte(in, '>')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated URI")
		}
		return in[:end+1], in[end+1:], nil
	case '_':
		end := strings.IndexAny(in, " \t")
		if end < 0 {
			end = len(in)
		}
		return in[:end], in[end:], nil
	case '"':
		end := closingQuote(in)
		if end < 0 {
			return "", "", fmt.Errorf("unterminated literal")
		}
		// Absorb an optional datatype (^^<...>) or language tag (@xx).
		rest = in[end+1:]
		if strings.HasPrefix(rest, "^^<") {
			gt := strings.IndexByte(rest, '>')
			if gt < 0 {
				return "", "", fmt.Errorf("unterminated datatype URI")
			}
			end += gt + 1
			rest = rest[gt+1:]
		} else if strings.HasPrefix(rest, "@") {
			n := 1
			for n < len(rest) && rest[n] != ' ' && rest[n] != '\t' {
				n++
			}
			end += n
			rest = rest[n:]
		}
		return in[:end+1], rest, nil
	default:
		return "", "", fmt.Errorf("unexpected character %q", in[0])
	}
}
