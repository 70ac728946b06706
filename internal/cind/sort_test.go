package cind

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// The renderers and the comparator Result.Sort had before it rendered each
// statement once, kept as the oracle: the order and the text of the output are
// a contract (golden files, the benchmark's output hashes), so the
// AppendFormat renderers and the keyed sort must reproduce them byte for byte.

func refCondition(c Condition, dict *rdf.Dictionary) string {
	s := fmt.Sprintf("%s=%s", c.A1, dict.Decode(c.V1))
	if c.IsBinary() {
		s += fmt.Sprintf(" ∧ %s=%s", c.A2, dict.Decode(c.V2))
	}
	return s
}

func refCapture(c Capture, dict *rdf.Dictionary) string {
	return fmt.Sprintf("(%s, %s)", c.Proj, refCondition(c.Cond, dict))
}

func refInclusion(i Inclusion, dict *rdf.Dictionary) string {
	return refCapture(i.Dep, dict) + " ⊆ " + refCapture(i.Ref, dict)
}

func refCIND(c CIND, dict *rdf.Dictionary) string {
	return fmt.Sprintf("%s  [support=%d]", refInclusion(c.Inclusion, dict), c.Support)
}

func refAR(r AR, dict *rdf.Dictionary) string {
	return fmt.Sprintf("%s → %s  [support=%d]", refCondition(r.If, dict), refCondition(r.Then, dict), r.Support)
}

// refSort is the former Result.Sort: one rendering of both operands per
// comparison.
func refSort(r *Result, dict *rdf.Dictionary) {
	sort.Slice(r.CINDs, func(i, j int) bool {
		if r.CINDs[i].Support != r.CINDs[j].Support {
			return r.CINDs[i].Support > r.CINDs[j].Support
		}
		return refCIND(r.CINDs[i], dict) < refCIND(r.CINDs[j], dict)
	})
	sort.Slice(r.ARs, func(i, j int) bool {
		if r.ARs[i].Support != r.ARs[j].Support {
			return r.ARs[i].Support > r.ARs[j].Support
		}
		return refAR(r.ARs[i], dict) < refAR(r.ARs[j], dict)
	})
}

// adversarialTerms are surface forms chosen to upset a comparison of
// rendered text or a parser of it: prefixes of one another, the renderers' own
// separators, quotes, multi-byte runes, control bytes that sort below the
// space before "[support=", and the empty string.
var adversarialTerms = []string{
	"", "a", "ab", "abc", "a b", "a  b", "a)", "a) ⊆ (s, p=a", "a)  [support=1]",
	"a\tb", "a\x01", "x=y", "=", "p=a ∧ o=b", "∧", "⊆", "→", "a → b", ",", "a, b",
	`"quoted"`, `"a literal with spaces"@en`, `"unbalanced`, "héllo", "hé", "日本語", "日本",
	"<http://dbpedia.org/resource/A>", "<http://dbpedia.org/resource/AB>",
	"<http://dbpedia.org/resource/A", "<dbr:e1>", "<dbr:e10>", "<dbr:e100>", "?",
}

// adversarialDict interns adversarialTerms and n filler terms that share long
// prefixes.
func adversarialDict(n int) *rdf.Dictionary {
	dict := rdf.NewDictionary()
	for _, s := range adversarialTerms {
		dict.Encode(s)
	}
	for i := 0; i < n; i++ {
		dict.Encode(fmt.Sprintf("<http://dbpedia.org/resource/Entity_%d>", i))
	}
	return dict
}

// randomCapture draws a well-formed capture over ids below terms.
func randomCapture(rng *rand.Rand, terms int) Capture {
	proj := rdf.Attrs[rng.Intn(3)]
	a1, a2 := proj.Others()
	v := func() rdf.Value { return rdf.Value(rng.Intn(terms)) }
	switch rng.Intn(3) {
	case 0:
		return NewCapture(proj, Unary(a1, v()))
	case 1:
		return NewCapture(proj, Unary(a2, v()))
	}
	return NewCapture(proj, Binary(a1, v(), a2, v()))
}

// randomResult draws cinds CINDs and ars rules over ids below terms, with few
// distinct supports so that most comparisons fall through to the text.
func randomResult(rng *rand.Rand, terms, cinds, ars int) *Result {
	res := &Result{}
	for i := 0; i < cinds; i++ {
		res.CINDs = append(res.CINDs, CIND{
			Inclusion: Inclusion{Dep: randomCapture(rng, terms), Ref: randomCapture(rng, terms)},
			Support:   1 + rng.Intn(6),
		})
	}
	for i := 0; i < ars; i++ {
		a := rng.Intn(3)
		res.ARs = append(res.ARs, AR{
			If:      Unary(rdf.Attrs[a], rdf.Value(rng.Intn(terms))),
			Then:    Unary(rdf.Attrs[(a+1+rng.Intn(2))%3], rdf.Value(rng.Intn(terms))),
			Support: 1 + rng.Intn(6),
		})
	}
	return res
}

func cloneResult(r *Result) *Result {
	return &Result{CINDs: append([]CIND(nil), r.CINDs...), ARs: append([]AR(nil), r.ARs...)}
}

// TestSortMatchesReferenceOrder: on seeded random results whose terms are
// adversarial, Sort yields the order of the per-comparison-Format comparator.
// The reference leaves statements that render alike (possible even with every
// id in range: a term may contain ") ⊆ (") in either order, so positions are
// compared by statement or else by support and text — what the output shows.
func TestSortMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dict := adversarialDict(40)
		res := randomResult(rng, dict.Len(), 6000, 1500)
		want := cloneResult(res)
		refSort(want, dict)
		res.Sort(dict)
		for i, c := range res.CINDs {
			if w := want.CINDs[i]; c != w && refCIND(c, dict) != refCIND(w, dict) {
				t.Fatalf("seed %d: CIND %d is %q, reference order has %q", seed, i, refCIND(c, dict), refCIND(w, dict))
			}
		}
		for i, ar := range res.ARs {
			if w := want.ARs[i]; ar != w && refAR(ar, dict) != refAR(w, dict) {
				t.Fatalf("seed %d: AR %d is %q, reference order has %q", seed, i, refAR(ar, dict), refAR(w, dict))
			}
		}
	}
}

// TestSortTotalOrder: statements that render identically — here every id the
// dictionary never issued decodes to "?" — still have one order, whatever
// order Sort finds them in, and within a run of equal text that order is by
// fields.
func TestSortTotalOrder(t *testing.T) {
	dict := rdf.NewDictionary()
	dict.Encode("a")
	dict.Encode("b")
	rng := rand.New(rand.NewSource(11))
	res := randomResult(rng, 40, 400, 120) // ids 2..39 all render as "?"
	res.Sort(dict)
	want := cloneResult(res)

	ties := 0
	for i := 1; i < len(want.CINDs); i++ {
		a, b := want.CINDs[i-1], want.CINDs[i]
		if a.Support != b.Support || a.Format(dict) != b.Format(dict) || a == b {
			continue
		}
		ties++
		if c := CompareCaptures(a.Dep, b.Dep); c > 0 || (c == 0 && CompareCaptures(a.Ref, b.Ref) > 0) {
			t.Fatalf("CINDs %d and %d render alike and are not in field order: %+v, %+v", i-1, i, a, b)
		}
	}
	for i := 1; i < len(want.ARs); i++ {
		a, b := want.ARs[i-1], want.ARs[i]
		if a.Support != b.Support || a.Format(dict) != b.Format(dict) || a == b {
			continue
		}
		ties++
		if c := compareConditions(a.If, b.If); c > 0 || (c == 0 && compareConditions(a.Then, b.Then) > 0) {
			t.Fatalf("ARs %d and %d render alike and are not in field order: %+v, %+v", i-1, i, a, b)
		}
	}
	if ties < 50 {
		t.Fatalf("only %d adjacent statements render alike; the test input lost its point", ties)
	}

	for round := 0; round < 50; round++ {
		rng.Shuffle(len(res.CINDs), func(i, j int) { res.CINDs[i], res.CINDs[j] = res.CINDs[j], res.CINDs[i] })
		rng.Shuffle(len(res.ARs), func(i, j int) { res.ARs[i], res.ARs[j] = res.ARs[j], res.ARs[i] })
		res.Sort(dict)
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("shuffle %d sorted into a different order", round)
		}
	}
}

// TestFormatMatchesReferenceText: every AppendFormat renders the text the
// Sprintf renderers did, Format is the prefixed lines concatenated, and
// WriteTo writes the same bytes and counts them.
func TestFormatMatchesReferenceText(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dict := adversarialDict(40)
	res := randomResult(rng, dict.Len()+3, 5000, 1000) // a few ids render as "?"
	var want strings.Builder
	for _, ar := range res.ARs {
		if got, ref := ar.Format(dict), refAR(ar, dict); got != ref {
			t.Fatalf("AR.Format = %q, reference %q", got, ref)
		}
		want.WriteString("AR   " + ar.Format(dict) + "\n")
	}
	for _, c := range res.CINDs {
		if got, ref := c.Format(dict), refCIND(c, dict); got != ref {
			t.Fatalf("CIND.Format = %q, reference %q", got, ref)
		}
		if got, ref := c.Inclusion.Format(dict), refInclusion(c.Inclusion, dict); got != ref {
			t.Fatalf("Inclusion.Format = %q, reference %q", got, ref)
		}
		if got, ref := c.Dep.Format(dict), refCapture(c.Dep, dict); got != ref {
			t.Fatalf("Capture.Format = %q, reference %q", got, ref)
		}
		if got, ref := c.Ref.Cond.Format(dict), refCondition(c.Ref.Cond, dict); got != ref {
			t.Fatalf("Condition.Format = %q, reference %q", got, ref)
		}
		want.WriteString("CIND " + c.Format(dict) + "\n")
	}
	if got := res.Format(dict); got != want.String() {
		t.Error("Result.Format is not its statements' lines concatenated")
	}
	var buf bytes.Buffer
	n, err := res.WriteTo(&buf, dict)
	if err != nil || n != int64(want.Len()) || buf.String() != want.String() {
		t.Errorf("WriteTo wrote %d bytes (err %v), want the %d bytes of Format", n, err, want.Len())
	}
	// AppendFormat appends: what dst held stays in front.
	if got := string(res.CINDs[0].AppendFormat([]byte("CIND "), dict)); got != "CIND "+res.CINDs[0].Format(dict) {
		t.Errorf("AppendFormat overwrote its destination: %q", got)
	}
}

// failAfter fails every Write once limit bytes have been accepted.
type failAfter struct {
	limit, written int
}

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		return 0, errSinkFull
	}
	f.written += len(p)
	return len(p), nil
}

// TestWriteToReportsWriteError: the first error of the writer ends WriteTo
// and is returned with the bytes accepted so far.
func TestWriteToReportsWriteError(t *testing.T) {
	dict := adversarialDict(0)
	res := randomResult(rand.New(rand.NewSource(2)), dict.Len(), 100, 10)
	sink := &failAfter{limit: len(res.Format(dict)) / 2}
	n, err := res.WriteTo(sink, dict)
	if !errors.Is(err, errSinkFull) || n != int64(sink.written) {
		t.Errorf("WriteTo = %d, %v; want %d, %v", n, err, sink.written, errSinkFull)
	}
}

// TestAppendFormatDoesNotAllocate: with room in dst, rendering allocates
// nothing — what lets Sort and WriteTo render a whole result into a buffer
// they reuse.
func TestAppendFormatDoesNotAllocate(t *testing.T) {
	dict := adversarialDict(4)
	c := CIND{Inclusion: Inclusion{
		Dep: NewCapture(rdf.Subject, Binary(rdf.Predicate, 27, rdf.Object, 28)),
		Ref: NewCapture(rdf.Subject, Unary(rdf.Predicate, 21)),
	}, Support: 12345}
	ar := AR{If: Unary(rdf.Object, 27), Then: Unary(rdf.Predicate, 28), Support: 7}
	buf := make([]byte, 0, 1024)
	for name, render := range map[string]func(){
		"Condition": func() { buf = c.Dep.Cond.AppendFormat(buf[:0], dict) },
		"Capture":   func() { buf = c.Dep.AppendFormat(buf[:0], dict) },
		"Inclusion": func() { buf = c.Inclusion.AppendFormat(buf[:0], dict) },
		"CIND":      func() { buf = c.AppendFormat(buf[:0], dict) },
		"AR":        func() { buf = ar.AppendFormat(buf[:0], dict) },
	} {
		if allocs := testing.AllocsPerRun(100, render); allocs != 0 {
			t.Errorf("%s.AppendFormat into a warm buffer: %v allocs/op, want 0", name, allocs)
		}
	}
}

// parseable reports whether a term survives the statement grammar of
// parse.go, which reserves the separators and trims blanks around terms.
func parseable(term string) bool {
	if term != strings.TrimSpace(term) {
		return false
	}
	for _, reserved := range []string{"∧", "&&", "⊆", "<=", "→", "->", "[support="} {
		if strings.Contains(term, reserved) {
			return false
		}
	}
	return true
}

// TestParseRoundTripsRenderedStatements: what Format prints, ParseInclusion
// and ParseAR read back to the same statement — the benchmark's certifier and
// `rdfind -check` parse printed lines — for every term outside the grammar's
// reserved tokens, including ones with ')', '=', ',', quotes, inner blanks,
// multi-byte runes and the empty string.
func TestParseRoundTripsRenderedStatements(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dict := adversarialDict(40)
	safe := func(conds ...Condition) bool {
		for _, c := range conds {
			if !parseable(dict.Decode(c.V1)) || (c.IsBinary() && !parseable(dict.Decode(c.V2))) {
				return false
			}
		}
		return true
	}
	res := randomResult(rng, dict.Len(), 6000, 1500)
	checked := 0
	for _, c := range res.CINDs {
		if !safe(c.Dep.Cond, c.Ref.Cond) {
			continue
		}
		checked++
		got, err := ParseInclusion(c.Format(dict), dict)
		if err != nil || got != c.Inclusion {
			t.Fatalf("ParseInclusion(%q) = %+v, %v; want %+v", c.Format(dict), got, err, c.Inclusion)
		}
	}
	for _, ar := range res.ARs {
		if !safe(ar.If, ar.Then) {
			continue
		}
		checked++
		got, err := ParseAR(ar.Format(dict), dict)
		if err != nil || got != ar {
			t.Fatalf("ParseAR(%q) = %+v, %v; want %+v", ar.Format(dict), got, err, ar)
		}
	}
	if checked < 2000 {
		t.Fatalf("only %d statements were parseable; the test input lost its point", checked)
	}
}

// db14Shaped builds a result the size and shape of DB14-PLE at h=10, the
// benchmark's result_heavy workload: 67 k CINDs between unary captures over
// `<dbr:eN>` terms (lines of about 60 bytes that agree in their first dozen),
// supports skewed towards the threshold, and 81 rules.
func db14Shaped() (*Result, *rdf.Dictionary) {
	rng := rand.New(rand.NewSource(14))
	dict := rdf.NewDictionary()
	const entities = 20000
	for i := 0; i < entities; i++ {
		dict.Encode(fmt.Sprintf("<dbr:e%d>", i))
	}
	res := &Result{}
	for i := 0; i < 67543; i++ {
		proj := rdf.Attrs[rng.Intn(3)]
		attr, _ := proj.Others()
		res.CINDs = append(res.CINDs, CIND{
			Inclusion: Inclusion{
				Dep: NewCapture(proj, Unary(attr, rdf.Value(rng.Intn(entities)))),
				Ref: NewCapture(proj, Unary(attr, rdf.Value(rng.Intn(entities)))),
			},
			Support: 10 + int(rng.ExpFloat64()*3),
		})
	}
	for i := 0; i < 81; i++ {
		res.ARs = append(res.ARs, AR{
			If:      Unary(rdf.Object, rdf.Value(rng.Intn(entities))),
			Then:    Unary(rdf.Predicate, rdf.Value(rng.Intn(entities))),
			Support: 10 + rng.Intn(10000),
		})
	}
	return res, dict
}

func BenchmarkResultSort(b *testing.B) {
	shuffled, dict := db14Shaped()
	res := cloneResult(shuffled)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(res.CINDs, shuffled.CINDs)
		copy(res.ARs, shuffled.ARs)
		b.StartTimer()
		res.Sort(dict)
	}
}

var formatSink string

func BenchmarkResultFormat(b *testing.B) {
	res, dict := db14Shaped()
	res.Sort(dict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		formatSink = res.Format(dict)
	}
	b.SetBytes(int64(len(formatSink)))
}
