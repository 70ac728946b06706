// Package fcdetect implements RDFind's Frequent Condition Detector (§5,
// Fig. 5): the first phase of lazy pruning. It finds all unary and binary
// conditions whose frequency reaches the support threshold and derives the
// exact association rules as a by-product of the two counting passes.
//
// It counts over the dictionary's dense ids (DESIGN.md, "Dense-id scan
// path"): unary frequencies are occurrence columns over the id space, cut
// into an exact bitmap where the paper builds a Bloom filter, and binary
// candidates are single integers counted by sorting.
package fcdetect

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
)

// Options tune the detector and the downstream capture-group creation.
type Options struct {
	// PredicatesOnlyInConditions implements §8.3's Freebase configuration:
	// "we consider predicates only in conditions" — the predicate element
	// never serves as a projection attribute, so no capture evidences are
	// emitted for it (and the dominant capture groups that predicate
	// projections of hot values like rdf:type would create never arise).
	// Condition detection itself is unaffected.
	PredicatesOnlyInConditions bool
}

// Frequent lists frequent conditions with their exact frequencies, ordered
// by (A1, A2, V1, V2). Every process of a run holds the whole list.
type Frequent []dataflow.Pair[cind.Condition, int]

// Len returns the number of conditions.
func (f Frequent) Len() int { return len(f) }

// Output is what later pipeline stages need: the frequent conditions with
// their frequencies, the exact association rules with their supports (step
// 11), and the unary index: unary[a] has bit v set iff a = v is frequent.
type Output struct {
	Unary, Binary Frequent
	ARs           []cind.AR
	unary         [3]rankedBits
}

// UnaryRank reports whether a = v is frequent and, if it is, how many
// frequent conditions on a have a smaller value — its position among them.
func (o *Output) UnaryRank(a rdf.Attr, v rdf.Value) (int, bool) {
	b := &o.unary[a]
	w, bit := int(v>>6), uint64(1)<<(v&63)
	if w >= len(b.words) || b.words[w]&bit == 0 {
		return 0, false
	}
	return int(b.ranks[w]) + bits.OnesCount64(b.words[w]&(bit-1)), true
}

// rankedBits is a bitmap over the ids with a rank directory: ranks[i] counts
// the bits set in words[:i].
type rankedBits struct {
	words []uint64
	ranks []uint32
}

// columns are the unary occurrence counters of one partition, or of the
// whole input once summed: n[3v+a] triples have t.a == v, for every id v up
// to the largest seen. A count fits uint32 for any input whose 12-byte
// triples fit a process's memory.
type columns struct {
	n []uint32
}

// countColumns fills the columns of one partition. It is also where the id
// space is checked: every later key packs ids that passed here.
func countColumns(ts []rdf.Triple) (*columns, error) {
	top := -1
	for _, t := range ts {
		top = max(top, int(max(t.S, t.P, t.O)))
	}
	if top > int(rdf.MaxValue) {
		return nil, &rdf.IDSpaceError{ID: rdf.Value(top)}
	}
	c := &columns{n: make([]uint32, 3*(top+1))}
	for _, t := range ts {
		c.n[3*t.S]++
		c.n[3*t.P+1]++
		c.n[3*t.O+2]++
	}
	return c, nil
}

// add sums o into c, keeping the longer of the two as accumulator.
func (c *columns) add(o *columns) *columns {
	if len(c.n) < len(o.n) {
		c, o = o, c
	}
	for i, n := range o.n {
		c.n[i] += n
	}
	return c
}

// threshold cuts the columns at h into the per-attribute bitmaps of frequent
// values and the list of frequent unary conditions, in condition order.
func (o *Output) threshold(c *columns, h int) {
	words := (len(c.n)/3 + 63) / 64
	for _, a := range rdf.Attrs {
		b := rankedBits{words: make([]uint64, words), ranks: make([]uint32, words)}
		for v := 0; 3*v < len(c.n); v++ {
			if n := int(c.n[3*v+int(a)]); n > 0 && n >= h {
				b.words[v>>6] |= 1 << (v & 63)
				o.Unary = append(o.Unary, dataflow.Pair[cind.Condition, int]{Key: cind.Unary(a, rdf.Value(v)), Val: n})
			}
		}
		var seen uint32
		for i, w := range b.words {
			b.ranks[i] = seen
			seen += uint32(bits.OnesCount64(w))
		}
		o.unary[a] = b
	}
}

// BinaryKey packs a binary condition into one integer whose order is the
// condition order (A1, A2, V1, V2): the attribute pair in the top two bits —
// 0 s∧p, 1 s∧o, 2 p∧o — then V1 and V2 in 31 bits each. Both values must not
// exceed rdf.MaxValue; the detector checks that once, in its column pass.
type BinaryKey uint64

// PackBinary packs a binary condition.
func PackBinary(c cind.Condition) BinaryKey {
	return BinaryKey(uint64(c.A1+c.A2-1)<<62 | uint64(c.V1)<<31 | uint64(c.V2))
}

// Condition unpacks the key. Only pairs 0–2 denote a condition.
func (k BinaryKey) Condition() cind.Condition {
	pair := rdf.Attr(k >> 62)
	return cind.Condition{
		A1: pair / 2, A2: (pair + 3) / 2,
		V1: rdf.Value(k >> 31 & BinaryKey(rdf.MaxValue)), V2: rdf.Value(k & BinaryKey(rdf.MaxValue)),
	}
}

type binaryCount = dataflow.Pair[BinaryKey, int]

// Detect runs the full detector over the partitioned triples. When the
// engine fails (worker fault, cancellation, an id beyond rdf.MaxValue) the
// output is well-formed but incomplete; the caller observes the failure via
// the dataset's Context.Err.
func Detect(triples *dataflow.Dataset[rdf.Triple], h int, opts Options) *Output {
	ctx := triples.Context()
	out := &Output{}
	if ctx.Err() != nil {
		return out
	}

	// Frequent unary conditions (steps 1–4): one column set per partition,
	// summed over partitions and ranks, thresholded on every process.
	partial := dataflow.MapPartitions(triples, "fcd/unary-columns",
		func(_ int, ts []rdf.Triple, emit func(*columns)) {
			c, err := countColumns(ts)
			if err != nil {
				ctx.Fail("fcd/unary-columns", err)
				return
			}
			emit(c)
		})
	cols, ok := dataflow.GlobalReduce(partial, "fcd/unary-sum", (*columns).add)
	if !ok {
		return out
	}
	out.threshold(cols, h)

	// Frequent binary conditions: Algorithm 1 — a triple proposes a binary
	// candidate only where both unary parts are frequent (steps 5–7). Each
	// partition counts its candidates by sorting the packed keys.
	counted := dataflow.MapPartitions(triples, "fcd/binary-counters",
		func(_ int, ts []rdf.Triple, emit func(binaryCount)) {
			var keys []BinaryKey
			for _, t := range ts {
				_, s := out.UnaryRank(rdf.Subject, t.S)
				_, p := out.UnaryRank(rdf.Predicate, t.P)
				_, o := out.UnaryRank(rdf.Object, t.O)
				if s && p {
					keys = append(keys, PackBinary(cind.Binary(rdf.Subject, t.S, rdf.Predicate, t.P)))
				}
				if s && o {
					keys = append(keys, PackBinary(cind.Binary(rdf.Subject, t.S, rdf.Object, t.O)))
				}
				if p && o {
					keys = append(keys, PackBinary(cind.Binary(rdf.Predicate, t.P, rdf.Object, t.O)))
				}
			}
			slices.Sort(keys)
			for i := 0; i < len(keys); {
				j := i + 1
				for j < len(keys) && keys[j] == keys[i] {
					j++
				}
				emit(binaryCount{Key: keys[i], Val: j - i})
				i = j
			}
		})
	sums := dataflow.ReduceByKey(counted, "fcd/binary-sum", func(a, b int) int { return a + b })
	frequent := dataflow.Collect(dataflow.Filter(sums, "fcd/binary-threshold",
		func(p binaryCount) bool { return p.Val >= h }))
	slices.SortFunc(frequent, func(a, b binaryCount) int { return cmp.Compare(a.Key, b.Key) })

	// Association rules (step 11, §5.3): a binary condition as frequent as
	// one of its parts means that part implies the other. The rule's support
	// is the shared frequency (Lemma 2).
	for _, p := range frequent {
		c := p.Key.Condition()
		if p.Key>>62 > 2 || 3*int(max(c.V1, c.V2))+2 >= len(cols.n) {
			ctx.Fail("fcd/binary-threshold", fmt.Errorf("%w: binary condition key %#x", dataflow.ErrCorruptRecord, uint64(p.Key)))
			return out
		}
		out.Binary = append(out.Binary, dataflow.Pair[cind.Condition, int]{Key: c, Val: p.Val})
		u1, u2 := cind.Unary(c.A1, c.V1), cind.Unary(c.A2, c.V2)
		if int(cols.n[3*int(c.V1)+int(c.A1)]) == p.Val {
			out.ARs = append(out.ARs, cind.AR{If: u1, Then: u2, Support: p.Val})
		}
		if int(cols.n[3*int(c.V2)+int(c.A2)]) == p.Val {
			out.ARs = append(out.ARs, cind.AR{If: u2, Then: u1, Support: p.Val})
		}
	}
	return out
}
