package rdf

import (
	"bytes"
	"fmt"
)

// This file holds the N-Triples scanning kernel that StreamNTriples
// (stream.go) runs on every chunk: scanShard parses one chunk of complete
// lines and dictionary-encodes it against a chunk-local Dictionary.
// Chunks are scanned concurrently and merged in document order, interning
// each chunk's terms in their first-occurrence order, so every term receives
// exactly the ID a sequential line-by-line read would assign, at any shard
// count or chunk size.
//
// The scanner works directly on the input bytes: lines and terms are slices
// of the chunk buffer, and a string is materialized only when a term is new
// to the chunk's dictionary (Dictionary.encodeBytes).

// shardResult is the outcome of scanning one chunk.
type shardResult struct {
	dict    *Dictionary
	triples []Triple
	errs    []*SyntaxError // malformed lines, in chunk order
}

// scanShard parses one chunk of about the given number of lines into
// chunk-local triples. Lines are trimmed; blank and '#' comment lines are
// skipped; every other line must be one statement.
func scanShard(chunk []byte, startLine, lines int) shardResult {
	res := shardResult{dict: newBlockDictionary(lines)}
	if lines > 0 {
		res.triples = make([]Triple, 0, lines+1)
	}
	// N-Triples documents run on their subject (all statements about one
	// entity in a row) and draw predicates from a small vocabulary, so a
	// last-seen memo per position short-circuits the term-table lookup with a
	// byte comparison for the common consecutive-repeat case.
	var lastS, lastP []byte
	var lastSID, lastPID Value
	lineNo := startLine - 1
	for len(chunk) > 0 {
		var line []byte
		if nl := bytes.IndexByte(chunk, '\n'); nl >= 0 {
			line, chunk = chunk[:nl], chunk[nl+1:]
		} else {
			line, chunk = chunk, nil
		}
		lineNo++
		// Trim fast path: when both boundary bytes are ASCII non-space there
		// is nothing to trim (multi-byte Unicode whitespace never starts or
		// ends with such a byte), and TrimSpace's call cost is measurable at
		// one call per line.
		if n := len(line); n == 0 || line[0] <= ' ' || line[0] >= 0x80 || line[n-1] <= ' ' || line[n-1] >= 0x80 {
			line = bytes.TrimSpace(line)
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		s, p, o, err := parseLineBytes(line)
		if err != nil {
			res.errs = append(res.errs, &SyntaxError{Line: lineNo, Err: err})
			continue
		}
		if !bytes.Equal(s, lastS) {
			lastS, lastSID = s, res.dict.encodeBytes(s)
		}
		if !bytes.Equal(p, lastP) {
			lastP, lastPID = p, res.dict.encodeBytes(p)
		}
		res.triples = append(res.triples, Triple{
			S: lastSID,
			P: lastPID,
			O: res.dict.encodeBytes(o),
		})
	}
	return res
}

// parseLineBytes splits one trimmed statement into its three terms, slicing
// the input buffer instead of materializing strings.
func parseLineBytes(line []byte) (s, p, o []byte, err error) {
	rest := line
	if s, rest, err = scanTermBytes(rest); err != nil {
		return nil, nil, nil, fmt.Errorf("subject: %w", err)
	}
	if p, rest, err = scanTermBytes(rest); err != nil {
		return nil, nil, nil, fmt.Errorf("predicate: %w", err)
	}
	if o, rest, err = scanTermBytes(rest); err != nil {
		return nil, nil, nil, fmt.Errorf("object: %w", err)
	}
	rest = bytes.TrimSpace(rest)
	if len(rest) != 1 || rest[0] != '.' {
		return nil, nil, nil, fmt.Errorf("expected terminating '.', got %q", rest)
	}
	return s, p, o, nil
}

// scanTermBytes consumes one term (URI, blank node, or literal) from the
// front of the input and returns it with the unconsumed remainder. The
// reader parity fuzzer holds it to the string-based reference grammar in
// reference_test.go.
func scanTermBytes(in []byte) (term, rest []byte, err error) {
	for len(in) > 0 && (in[0] == ' ' || in[0] == '\t') {
		in = in[1:]
	}
	if len(in) == 0 {
		return nil, nil, fmt.Errorf("unexpected end of line")
	}
	switch in[0] {
	case '<':
		end := bytes.IndexByte(in, '>')
		if end < 0 {
			return nil, nil, fmt.Errorf("unterminated URI")
		}
		return in[:end+1], in[end+1:], nil
	case '_':
		end := indexSpaceTab(in)
		if end < 0 {
			end = len(in)
		}
		return in[:end], in[end:], nil
	case '"':
		end := closingQuoteBytes(in)
		if end < 0 {
			return nil, nil, fmt.Errorf("unterminated literal")
		}
		// Absorb an optional datatype (^^<...>) or language tag (@xx).
		rest = in[end+1:]
		if bytes.HasPrefix(rest, []byte("^^<")) {
			gt := bytes.IndexByte(rest, '>')
			if gt < 0 {
				return nil, nil, fmt.Errorf("unterminated datatype URI")
			}
			end += gt + 1
			rest = rest[gt+1:]
		} else if len(rest) > 0 && rest[0] == '@' {
			n := 1
			for n < len(rest) && rest[n] != ' ' && rest[n] != '\t' {
				n++
			}
			end += n
			rest = rest[n:]
		}
		return in[:end+1], rest, nil
	default:
		return nil, nil, fmt.Errorf("unexpected character %q", in[0])
	}
}

// indexSpaceTab finds the first space or tab, the byte-slice counterpart of
// strings.IndexAny(in, " \t").
func indexSpaceTab(in []byte) int {
	for i := 0; i < len(in); i++ {
		if in[i] == ' ' || in[i] == '\t' {
			return i
		}
	}
	return -1
}

// closingQuoteBytes finds the index of the unescaped closing quote of a
// literal that starts at in[0] == '"'.
func closingQuoteBytes(in []byte) int {
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
