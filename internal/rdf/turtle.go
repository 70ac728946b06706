package rdf

import (
	"fmt"
	"strings"
	"unicode"
)

// This file implements the statement parser StreamTurtle (stream.go) runs
// over its sliding window, for the Turtle subset commonly found in
// Linked Open Data dumps (the corpora RDFind targets): @prefix and @base
// directives, prefixed names, the "a" keyword, predicate lists (";"),
// object lists (","), blank-node labels, quoted literals with datatype or
// language tags, and bare numeric/boolean literals. Collections and
// anonymous blank-node property lists ("[...]", "(...)") are not supported
// and yield a descriptive error.

// xsd datatype IRIs for bare literal tokens.
const (
	xsdInteger = "http://www.w3.org/2001/XMLSchema#integer"
	xsdDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	xsdBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	rdfType    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

// stmtTriple is one parsed statement's worth of output, buffered on the
// parser so a statement interrupted by the end of the streaming window can
// be retried after a refill without emitting its triples twice.
type stmtTriple struct {
	s, p, o string
}

type turtleParser struct {
	pending  []stmtTriple // triples of statements not yet committed
	prefixes map[string]string
	base     string
	input    string
	pos      int
	line     int
	// final reports that input ends the document: nothing follows the
	// window, so constructs that would otherwise wait for more bytes (a
	// comment without its newline yet) can be consumed to the end.
	final bool
}

func (p *turtleParser) errf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", p.line+1, fmt.Sprintf(format, args...))
}

// skipWS advances over whitespace and comments.
func (p *turtleParser) skipWS() {
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '#':
			nl := strings.IndexByte(p.input[p.pos:], '\n')
			if nl < 0 {
				// The comment may continue past a non-final window edge;
				// leave it for the caller to refill rather than consuming a
				// truncated prefix the statement retry could not restore.
				if !p.final {
					return
				}
				p.pos = len(p.input)
				return
			}
			p.pos += nl
		default:
			return
		}
	}
}

func (p *turtleParser) eof() bool {
	p.skipWS()
	return p.pos >= len(p.input)
}

// expect consumes one literal byte.
func (p *turtleParser) expect(c byte) error {
	p.skipWS()
	if p.pos >= len(p.input) || p.input[p.pos] != c {
		got := "end of input"
		if p.pos < len(p.input) {
			got = fmt.Sprintf("%q", p.input[p.pos])
		}
		return p.errf("expected %q, got %s", c, got)
	}
	p.pos++
	return nil
}

// statement parses a directive or a triples block.
func (p *turtleParser) statement() error {
	p.skipWS()
	if strings.HasPrefix(p.input[p.pos:], "@prefix") || hasPrefixFold(p.input[p.pos:], "PREFIX") {
		return p.prefixDirective()
	}
	if strings.HasPrefix(p.input[p.pos:], "@base") || hasPrefixFold(p.input[p.pos:], "BASE") {
		return p.baseDirective()
	}
	return p.triples()
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

// prefixDirective parses "@prefix ns: <iri> ." or SPARQL-style "PREFIX".
func (p *turtleParser) prefixDirective() error {
	sparqlStyle := hasPrefixFold(p.input[p.pos:], "PREFIX")
	if sparqlStyle {
		p.pos += len("PREFIX")
	} else {
		p.pos += len("@prefix")
	}
	p.skipWS()
	colon := strings.IndexByte(p.input[p.pos:], ':')
	if colon < 0 {
		return p.errf("prefix directive without ':'")
	}
	ns := strings.TrimSpace(p.input[p.pos : p.pos+colon])
	p.pos += colon + 1
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[ns] = iri
	if !sparqlStyle {
		return p.expect('.')
	}
	return nil
}

// baseDirective parses "@base <iri> ." or SPARQL-style "BASE".
func (p *turtleParser) baseDirective() error {
	sparqlStyle := hasPrefixFold(p.input[p.pos:], "BASE")
	if sparqlStyle {
		p.pos += len("BASE")
	} else {
		p.pos += len("@base")
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.base = iri
	if !sparqlStyle {
		return p.expect('.')
	}
	return nil
}

// triples parses: subject predicateObjectList '.'
func (p *turtleParser) triples() error {
	subj, err := p.resource("subject")
	if err != nil {
		return err
	}
	for {
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			obj, err := p.object()
			if err != nil {
				return err
			}
			p.pending = append(p.pending, stmtTriple{subj, pred, obj})
			p.skipWS()
			if p.pos < len(p.input) && p.input[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		p.skipWS()
		if p.pos < len(p.input) && p.input[p.pos] == ';' {
			p.pos++
			p.skipWS()
			// A trailing ';' before '.' is legal Turtle.
			if p.pos < len(p.input) && p.input[p.pos] == '.' {
				break
			}
			continue
		}
		break
	}
	return p.expect('.')
}

// resource parses an IRI, prefixed name, or blank node label and returns its
// N-Triples surface form.
func (p *turtleParser) resource(role string) (string, error) {
	p.skipWS()
	if p.pos >= len(p.input) {
		return "", p.errf("missing %s", role)
	}
	switch c := p.input[p.pos]; {
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return "", err
		}
		return "<" + iri + ">", nil
	case c == '_' && strings.HasPrefix(p.input[p.pos:], "_:"):
		start := p.pos
		p.pos += 2
		for p.pos < len(p.input) && isNameChar(p.input[p.pos]) {
			p.pos++
		}
		return p.input[start:p.pos], nil
	case c == '[':
		return "", p.errf("anonymous blank nodes '[...]' are not supported")
	case c == '(':
		return "", p.errf("collections '(...)' are not supported")
	default:
		return p.prefixedName(role)
	}
}

// predicate parses a verb: 'a' or a resource.
func (p *turtleParser) predicate() (string, error) {
	p.skipWS()
	if strings.HasPrefix(p.input[p.pos:], "a") {
		after := p.pos + 1
		if after >= len(p.input) || !isNameChar(p.input[after]) && p.input[after] != ':' {
			p.pos++
			return "<" + rdfType + ">", nil
		}
	}
	return p.resource("predicate")
}

// object parses a resource or literal.
func (p *turtleParser) object() (string, error) {
	p.skipWS()
	if p.pos >= len(p.input) {
		return "", p.errf("missing object")
	}
	c := p.input[p.pos]
	switch {
	case c == '"':
		return p.literal()
	case c == '+' || c == '-' || c >= '0' && c <= '9':
		return p.numericLiteral()
	case strings.HasPrefix(p.input[p.pos:], "true") || strings.HasPrefix(p.input[p.pos:], "false"):
		start := p.pos
		for p.pos < len(p.input) && unicode.IsLetter(rune(p.input[p.pos])) {
			p.pos++
		}
		return fmt.Sprintf("%q^^<%s>", p.input[start:p.pos], xsdBoolean), nil
	default:
		return p.resource("object")
	}
}

// iriRef parses <...> and resolves it against @base when relative.
func (p *turtleParser) iriRef() (string, error) {
	if err := p.expect('<'); err != nil {
		return "", err
	}
	end := strings.IndexByte(p.input[p.pos:], '>')
	if end < 0 {
		return "", p.errf("unterminated IRI")
	}
	iri := p.input[p.pos : p.pos+end]
	p.pos += end + 1
	if p.base != "" && !strings.Contains(iri, ":") {
		iri = p.base + iri
	}
	return iri, nil
}

// prefixedName parses ns:local and expands the namespace.
func (p *turtleParser) prefixedName(role string) (string, error) {
	start := p.pos
	for p.pos < len(p.input) && isNameChar(p.input[p.pos]) {
		p.pos++
	}
	if p.pos >= len(p.input) || p.input[p.pos] != ':' {
		return "", p.errf("malformed %s at %q", role, excerpt(p.input[start:]))
	}
	ns := p.input[start:p.pos]
	p.pos++
	localStart := p.pos
	for p.pos < len(p.input) && isNameChar(p.input[p.pos]) {
		p.pos++
	}
	local := p.input[localStart:p.pos]
	base, ok := p.prefixes[ns]
	if !ok {
		return "", p.errf("undeclared prefix %q", ns)
	}
	return "<" + base + local + ">", nil
}

// literal parses a quoted string with optional datatype or language tag.
func (p *turtleParser) literal() (string, error) {
	rest := p.input[p.pos:]
	end := closingQuote(rest)
	if end < 0 {
		return "", p.errf("unterminated literal")
	}
	lex := rest[:end+1] // includes both quotes
	p.pos += end + 1
	// Suffix: @lang or ^^iri / ^^prefixed.
	if strings.HasPrefix(p.input[p.pos:], "@") {
		start := p.pos
		p.pos++
		for p.pos < len(p.input) && (isNameChar(p.input[p.pos]) || p.input[p.pos] == '-') {
			p.pos++
		}
		return lex + p.input[start:p.pos], nil
	}
	if strings.HasPrefix(p.input[p.pos:], "^^") {
		p.pos += 2
		dt, err := p.resource("datatype")
		if err != nil {
			return "", err
		}
		return lex + "^^" + dt, nil
	}
	return lex, nil
}

// numericLiteral parses bare integers and decimals.
func (p *turtleParser) numericLiteral() (string, error) {
	start := p.pos
	if c := p.input[p.pos]; c == '+' || c == '-' {
		p.pos++
	}
	dots := 0
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= '0' && c <= '9' {
			p.pos++
			continue
		}
		if c == '.' && p.pos+1 < len(p.input) && p.input[p.pos+1] >= '0' && p.input[p.pos+1] <= '9' {
			dots++
			p.pos++
			continue
		}
		break
	}
	tok := p.input[start:p.pos]
	if tok == "" || tok == "+" || tok == "-" {
		return "", p.errf("malformed number")
	}
	dt := xsdInteger
	if dots > 0 {
		dt = xsdDecimal
	}
	return fmt.Sprintf("%q^^<%s>", tok, dt), nil
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-'
}

func excerpt(s string) string {
	if len(s) > 20 {
		return s[:20] + "…"
	}
	return s
}
