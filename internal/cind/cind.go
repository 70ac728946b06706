// Package cind defines the conditional-inclusion-dependency model of the
// paper (§2–§3): unary and binary conditions over triple elements, captures
// (a projection attribute plus a condition), CINDs as inclusions between
// captures, exact association rules, and the implication algebra that
// underlies minimality (dependent and referenced implication).
//
// All types are small comparable structs over dictionary-encoded values, so
// they serve directly as map keys and have compact 64-bit digests for Bloom
// filters.
package cind

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Condition is a predicate over a triple: t.A1 = V1 (unary) or
// t.A1 = V1 ∧ t.A2 = V2 (binary). Binary conditions are normalized so that
// A1 < A2; A2 == rdf.AttrNone marks a unary condition (Definition 2.1).
type Condition struct {
	A1 rdf.Attr
	A2 rdf.Attr
	V1 rdf.Value
	V2 rdf.Value
}

// Unary builds the condition a = v.
func Unary(a rdf.Attr, v rdf.Value) Condition {
	return Condition{A1: a, A2: rdf.AttrNone, V1: v, V2: rdf.NoValue}
}

// Binary builds the condition a1 = v1 ∧ a2 = v2 in canonical attribute
// order. The two attributes must differ.
func Binary(a1 rdf.Attr, v1 rdf.Value, a2 rdf.Attr, v2 rdf.Value) Condition {
	if a1 == a2 {
		panic("cind: binary condition on a single attribute")
	}
	if a1 > a2 {
		a1, a2, v1, v2 = a2, a1, v2, v1
	}
	return Condition{A1: a1, A2: a2, V1: v1, V2: v2}
}

// IsBinary reports whether the condition constrains two attributes.
func (c Condition) IsBinary() bool { return c.A2 != rdf.AttrNone }

// Matches reports whether triple t satisfies the condition.
func (c Condition) Matches(t rdf.Triple) bool {
	if t.Get(c.A1) != c.V1 {
		return false
	}
	return !c.IsBinary() || t.Get(c.A2) == c.V2
}

// UnaryParts returns the unary conditions a binary condition implies. For a
// unary condition it returns the condition itself, once.
func (c Condition) UnaryParts() []Condition {
	if !c.IsBinary() {
		return []Condition{c}
	}
	return []Condition{Unary(c.A1, c.V1), Unary(c.A2, c.V2)}
}

// Implies reports φ ⇒ φ': the predicate of φ' is one of the predicates of φ,
// or the two are equal (§3.1).
func (c Condition) Implies(o Condition) bool {
	if c == o {
		return true
	}
	if o.IsBinary() {
		return false // a condition only implies itself or its unary parts
	}
	return c.IsBinary() &&
		((o.A1 == c.A1 && o.V1 == c.V1) || (o.A1 == c.A2 && o.V1 == c.V2))
}

// Uses reports whether the condition constrains attribute a.
func (c Condition) Uses(a rdf.Attr) bool {
	return c.A1 == a || (c.IsBinary() && c.A2 == a)
}

// Key digests the condition into 64 bits for Bloom-filter membership.
// Collisions only cause Bloom false positives, which every consumer
// tolerates by construction.
func (c Condition) Key() uint64 {
	return mix(uint64(c.A1)<<34 | uint64(c.A2)<<32 | uint64(c.V1)<<1 | 1).rotadd(mix(uint64(c.V2)))
}

// AppendFormat appends the condition's rendering against a dictionary, e.g.
// "p=memberOf ∧ o=csd", to dst and returns the extended slice. Like the other
// AppendFormat methods it allocates only when dst must grow.
func (c Condition) AppendFormat(dst []byte, dict *rdf.Dictionary) []byte {
	dst = append(dst, c.A1.String()...)
	dst = append(dst, '=')
	dst = append(dst, dict.Decode(c.V1)...)
	if c.IsBinary() {
		dst = append(dst, " ∧ "...)
		dst = append(dst, c.A2.String()...)
		dst = append(dst, '=')
		dst = append(dst, dict.Decode(c.V2)...)
	}
	return dst
}

// Format renders the condition as a string (see AppendFormat).
func (c Condition) Format(dict *rdf.Dictionary) string {
	return string(c.AppendFormat(nil, dict))
}

// Capture pairs a projection attribute with a condition that must not use it
// (Definition 2.2). Its interpretation on a dataset is the set of values the
// projection takes over the triples satisfying the condition.
type Capture struct {
	Proj rdf.Attr
	Cond Condition
}

// NewCapture builds a capture, panicking if the condition uses the
// projection attribute (disallowed by Definition 2.2).
func NewCapture(proj rdf.Attr, cond Condition) Capture {
	if cond.Uses(proj) {
		panic("cind: capture condition uses the projection attribute")
	}
	return Capture{Proj: proj, Cond: cond}
}

// Key digests the capture into 64 bits for Bloom-filter membership.
func (c Capture) Key() uint64 {
	return mix(uint64(c.Proj) + 0x9E3779B97F4A7C15).rotadd(mix(c.Cond.Key()))
}

// AppendFormat appends the capture's rendering, e.g.
// "(s, p=memberOf ∧ o=csd)", to dst.
func (c Capture) AppendFormat(dst []byte, dict *rdf.Dictionary) []byte {
	dst = append(dst, '(')
	dst = append(dst, c.Proj.String()...)
	dst = append(dst, ", "...)
	dst = c.Cond.AppendFormat(dst, dict)
	return append(dst, ')')
}

// Format renders the capture as a string (see AppendFormat).
func (c Capture) Format(dict *rdf.Dictionary) string {
	return string(c.AppendFormat(nil, dict))
}

// Inclusion is a CIND statement c ⊆ c′ between a dependent and a referenced
// capture (Definition 2.3). It is comparable and therefore a map key.
type Inclusion struct {
	Dep, Ref Capture
}

// Trivial reports whether the inclusion holds on every dataset because the
// dependent condition logically implies the referenced one under the same
// projection (e.g. (s, p=a ∧ o=b) ⊆ (s, p=a), §5.1 "equivalence pruning").
func (i Inclusion) Trivial() bool {
	if i.Dep == i.Ref {
		return true
	}
	return i.Dep.Proj == i.Ref.Proj && i.Dep.Cond.Implies(i.Ref.Cond)
}

// Implies reports whether this inclusion's validity entails o's validity via
// dependent implication (tightening the dependent condition), referenced
// implication (relaxing the referenced condition), or their composition
// (§3.1).
func (i Inclusion) Implies(o Inclusion) bool {
	if i == o {
		return false
	}
	return i.Dep.Proj == o.Dep.Proj && i.Ref.Proj == o.Ref.Proj &&
		o.Dep.Cond.Implies(i.Dep.Cond) && i.Ref.Cond.Implies(o.Ref.Cond)
}

// AppendFormat appends the inclusion's rendering, e.g.
// "(s, p=memberOf) ⊆ (s, p=rdf:type ∧ o=gradStudent)", to dst.
func (i Inclusion) AppendFormat(dst []byte, dict *rdf.Dictionary) []byte {
	dst = i.Dep.AppendFormat(dst, dict)
	dst = append(dst, " ⊆ "...)
	return i.Ref.AppendFormat(dst, dict)
}

// Format renders the inclusion as a string (see AppendFormat).
func (i Inclusion) Format(dict *rdf.Dictionary) string {
	return string(i.AppendFormat(nil, dict))
}

// CIND is an inclusion together with its support, the number of distinct
// values in the dependent capture's interpretation (Definition 3.1).
type CIND struct {
	Inclusion
	Support int
}

// AppendFormat appends the CIND's rendering, the inclusion followed by
// "  [support=N]", to dst.
func (c CIND) AppendFormat(dst []byte, dict *rdf.Dictionary) []byte {
	return appendSupport(c.Inclusion.AppendFormat(dst, dict), c.Support)
}

// Format renders the CIND with its support as a string (see AppendFormat).
func (c CIND) Format(dict *rdf.Dictionary) string {
	return string(c.AppendFormat(nil, dict))
}

// appendSupport appends the "  [support=N]" suffix of CIND and AR renderings.
func appendSupport(dst []byte, support int) []byte {
	dst = append(dst, "  [support="...)
	dst = strconv.AppendInt(dst, int64(support), 10)
	return append(dst, ']')
}

// AR is an exact association rule If → Then with confidence 1 over triples
// read as transactions {s=..., p=..., o=...} (§3.2). Both sides are unary
// conditions on distinct attributes.
type AR struct {
	If, Then Condition
	Support  int
}

// ImpliedCIND returns the CIND the rule implies:
// (γ, If) ⊆ (γ, If ∧ Then) where γ is the attribute used by neither side
// (Lemma 2 gives it the same support as the rule).
func (r AR) ImpliedCIND() CIND {
	var free rdf.Attr
	for _, a := range rdf.Attrs {
		if !r.If.Uses(a) && !r.Then.Uses(a) {
			free = a
		}
	}
	return CIND{
		Inclusion: Inclusion{
			Dep: NewCapture(free, r.If),
			Ref: NewCapture(free, Binary(r.If.A1, r.If.V1, r.Then.A1, r.Then.V1)),
		},
		Support: r.Support,
	}
}

// AppendFormat appends the rule's rendering, e.g.
// "o=gradStudent → p=rdf:type  [support=2]", to dst.
func (r AR) AppendFormat(dst []byte, dict *rdf.Dictionary) []byte {
	dst = r.If.AppendFormat(dst, dict)
	dst = append(dst, " → "...)
	dst = r.Then.AppendFormat(dst, dict)
	return appendSupport(dst, r.Support)
}

// Format renders the rule as a string (see AppendFormat).
func (r AR) Format(dict *rdf.Dictionary) string {
	return string(r.AppendFormat(nil, dict))
}

// Result is the output of a discovery run: the pertinent CINDs and the
// association rules that replace their implied CINDs (§3.3).
type Result struct {
	CINDs []CIND
	ARs   []AR
}

// Sort orders both result lists by descending support, then by the bytes of
// the rendered statement (AppendFormat, the text Format prints), giving
// deterministic output. Statements that render identically — distinct ids a
// dictionary decodes to the same text, such as "?" for every id it never
// issued — are ordered by their fields: dependent before referenced capture
// and Proj, A1, A2, V1, V2 within each for CINDs, If before Then for rules.
// The order is therefore total and independent of the order Sort found the
// lists in. Every statement is rendered once, into one key arena of the
// output's size that lives for the duration of the call; the comparisons
// themselves allocate nothing.
func (r *Result) Sort(dict *rdf.Dictionary) {
	sortRendered(r.CINDs,
		func(c CIND) int { return c.Support },
		func(dst []byte, c CIND) []byte { return c.AppendFormat(dst, dict) },
		func(a, b CIND) int {
			return cmp.Or(CompareCaptures(a.Dep, b.Dep), CompareCaptures(a.Ref, b.Ref))
		})
	sortRendered(r.ARs,
		func(a AR) int { return a.Support },
		func(dst []byte, a AR) []byte { return a.AppendFormat(dst, dict) },
		func(a, b AR) int {
			return cmp.Or(compareConditions(a.If, b.If), compareConditions(a.Then, b.Then))
		})
}

// lineGuess is the rendered length Sort and Format reserve per statement
// before they know it; longer statements grow the buffer as append does.
const lineGuess = 64

// sortKey is one statement of a list being sorted: its support, its rendered
// key arena[lo:hi], and its position in the unsorted list.
type sortKey struct {
	support, lo, hi, idx int
}

// sortRendered sorts xs by (support descending, rendered bytes, tie). It
// renders each element once into a shared arena, sorts the keys — never the
// elements — and then moves every element to its place along the cycles of
// the resulting permutation.
func sortRendered[T any](xs []T, support func(T) int, render func([]byte, T) []byte, tie func(a, b T) int) {
	if len(xs) < 2 {
		return
	}
	keys := make([]sortKey, len(xs))
	arena := make([]byte, 0, len(xs)*lineGuess)
	for i, x := range xs {
		lo := len(arena)
		arena = render(arena, x)
		keys[i] = sortKey{support: support(x), lo: lo, hi: len(arena), idx: i}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.support != b.support {
			return cmp.Compare(b.support, a.support)
		}
		if c := bytes.Compare(arena[a.lo:a.hi], arena[b.lo:b.hi]); c != 0 {
			return c
		}
		return tie(xs[a.idx], xs[b.idx])
	})
	// keys[j].idx is the element that belongs at j. Follow each cycle once,
	// marking visited positions with -1.
	for i := range keys {
		if keys[i].idx < 0 || keys[i].idx == i {
			continue
		}
		first := xs[i]
		j := i
		for {
			src := keys[j].idx
			keys[j].idx = -1
			if src == i {
				xs[j] = first
				break
			}
			xs[j] = xs[src]
			j = src
		}
	}
}

// compareConditions orders conditions by A1, A2, V1, V2. It stops at the
// first field that differs (cmp.Or would evaluate all four first): the
// extractor's candidate-set merges call it once per probe.
func compareConditions(a, b Condition) int {
	switch {
	case a.A1 != b.A1:
		return cmp.Compare(a.A1, b.A1)
	case a.A2 != b.A2:
		return cmp.Compare(a.A2, b.A2)
	case a.V1 != b.V1:
		return cmp.Compare(a.V1, b.V1)
	}
	return cmp.Compare(a.V2, b.V2)
}

// CompareCaptures orders captures by projection, then condition: the capture
// order.
func CompareCaptures(a, b Capture) int {
	if a.Proj != b.Proj {
		return cmp.Compare(a.Proj, b.Proj)
	}
	return compareConditions(a.Cond, b.Cond)
}

// WriteTo renders the whole result to w, one statement per line — the rules
// as "AR   <rule>", then the CINDs as "CIND <cind>" — and returns the number
// of bytes written and the first error w returned. It makes one Write per
// line from a buffer it reuses; a caller writing to a file or pipe should
// hand it a bufio.Writer.
func (r *Result) WriteTo(w io.Writer, dict *rdf.Dictionary) (int64, error) {
	var written int64
	var line []byte
	write := func() error {
		line = append(line, '\n')
		n, err := w.Write(line)
		written += int64(n)
		return err
	}
	for _, ar := range r.ARs {
		line = ar.AppendFormat(append(line[:0], "AR   "...), dict)
		if err := write(); err != nil {
			return written, err
		}
	}
	for _, c := range r.CINDs {
		line = c.AppendFormat(append(line[:0], "CIND "...), dict)
		if err := write(); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Format renders the whole result as a string (see WriteTo).
func (r *Result) Format(dict *rdf.Dictionary) string {
	var b strings.Builder
	b.Grow((len(r.ARs) + len(r.CINDs)) * lineGuess)
	r.WriteTo(&b, dict) // a strings.Builder never fails a write
	return b.String()
}

// mix is a 64-bit finalizer (splitmix64) used to build digests.
type mixed uint64

func mix(x uint64) mixed {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return mixed(x)
}

func (m mixed) rotadd(o mixed) uint64 {
	x := uint64(m)
	return (x<<13 | x>>51) + 0x9E3779B97F4A7C15*uint64(o)
}
