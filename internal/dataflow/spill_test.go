package dataflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// stringCodec carries the string values of distProgram's CoGroup right side;
// Pair[int, int] and Pair[int, string] take codecs derived from it and the
// built-in int codec.
type stringCodec struct{}

func (stringCodec) AppendValue(dst []byte, v string) []byte { return append(dst, v...) }
func (stringCodec) DecodeValue(src []byte) (string, error)  { return string(src), nil }

func init() { RegisterValueCodec[string](stringCodec{}) }

// spillPairs builds a deterministic workload: n records over k distinct keys.
func spillPairs(n, k int) []Pair[int, int] {
	rng := rand.New(rand.NewSource(42))
	out := make([]Pair[int, int], n)
	for i := range out {
		out[i] = Pair[int, int]{Key: rng.Intn(k), Val: rng.Intn(100)}
	}
	return out
}

func sortPairs(ps []Pair[int, int]) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Key != ps[j].Key {
			return ps[i].Key < ps[j].Key
		}
		return ps[i].Val < ps[j].Val
	})
}

func TestSpillReduceMatchesInMemory(t *testing.T) {
	input := spillPairs(20000, 3000)
	// Sequential oracle.
	oracle := map[int]int{}
	for _, p := range input {
		oracle[p.Key] += p.Val
	}
	want := make([]Pair[int, int], 0, len(oracle))
	for k, v := range oracle {
		want = append(want, Pair[int, int]{k, v})
	}
	sortPairs(want)

	add := func(a, b int) int { return a + b }
	for _, workers := range []int{1, 2, 4} {
		for _, budget := range []int64{1, 1 << 10, 1 << 16, 1 << 30} {
			t.Run(fmt.Sprintf("workers=%d/budget=%d", workers, budget), func(t *testing.T) {
				c := NewContext(workers, WithMemoryBudget(budget), WithSpillDir(t.TempDir()))
				d := Parallelize(c, "input", input)
				got := Collect(ReduceByKey(d, "sum", add))
				if err := c.Err(); err != nil {
					t.Fatalf("budgeted pipeline failed: %v", err)
				}
				sortPairs(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("budgeted result diverged: %d records, want %d", len(got), len(want))
				}
				spilled := c.Stats().Metrics().Counter("dataflow.spill.bytes").Value()
				if budget <= 1<<10 && spilled == 0 {
					t.Errorf("budget %d spilled nothing", budget)
				}
				if budget == 1<<30 && spilled != 0 {
					t.Errorf("generous budget %d wrote %d spill bytes, want pure in-memory", budget, spilled)
				}
			})
		}
	}
}

func TestSpillReduceCountersInSpan(t *testing.T) {
	c := NewContext(2, WithMemoryBudget(1), WithSpillDir(t.TempDir()))
	d := Parallelize(c, "input", spillPairs(5000, 2000))
	Collect(ReduceByKey(d, "sum", func(a, b int) int { return a + b }))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, sp := range c.Stats().Spans() {
		if sp.Name != "sum" {
			continue
		}
		found = true
		if sp.SpilledBytes == 0 || sp.SpilledRuns == 0 || sp.MergePasses == 0 {
			t.Errorf("span spill counters = %d bytes / %d runs / %d passes, want all nonzero",
				sp.SpilledBytes, sp.SpilledRuns, sp.MergePasses)
		}
		if sp.CombinerIn == 0 || sp.RecordsIn == 0 {
			t.Errorf("span work accounting missing: combinerIn=%d recordsIn=%d", sp.CombinerIn, sp.RecordsIn)
		}
	}
	if !found {
		t.Fatal(`no span named "sum"`)
	}
	reg := c.Stats().Metrics()
	for _, name := range []string{"dataflow.spill.bytes", "dataflow.spill.runs", "dataflow.spill.merge_passes"} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("registry counter %s is zero", name)
		}
	}
}

// A minimal budget on one worker forces well over mergeFanIn runs, so the
// external merge needs intermediate passes; the result must be unaffected.
func TestSpillReduceMultiPassMerge(t *testing.T) {
	input := spillPairs(30000, 8000) // ≥ 8000/8 = 1000 runs at the floor bound
	oracle := map[int]int{}
	for _, p := range input {
		oracle[p.Key] += p.Val
	}
	c := NewContext(1, WithMemoryBudget(1), WithSpillDir(t.TempDir()))
	d := Parallelize(c, "input", input)
	got := Collect(ReduceByKey(d, "sum", func(a, b int) int { return a + b }))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(oracle) {
		t.Fatalf("got %d keys, want %d", len(got), len(oracle))
	}
	for _, p := range got {
		if oracle[p.Key] != p.Val {
			t.Fatalf("key %d = %d, want %d", p.Key, p.Val, oracle[p.Key])
		}
	}
	if passes := c.Stats().Metrics().Counter("dataflow.spill.merge_passes").Value(); passes < 2 {
		t.Errorf("merge passes = %d, want ≥ 2 (multi-pass merge)", passes)
	}
}

// Without a registered codec the budget must be ignored, not crash: the
// operator silently stays in memory.
func TestSpillFallsBackWithoutCodec(t *testing.T) {
	type opaque struct{ A, B int } // no codec registered for Pair[opaque, int]
	c := NewContext(2, WithMemoryBudget(1))
	d := Parallelize(c, "input", []Pair[opaque, int]{
		{opaque{1, 2}, 10}, {opaque{1, 2}, 5}, {opaque{3, 4}, 1},
	})
	got := Collect(ReduceByKey(d, "sum", func(a, b int) int { return a + b }))
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d keys, want 2", len(got))
	}
	if c.Stats().Metrics().Counter("dataflow.spill.bytes").Value() != 0 {
		t.Error("codec-less operator spilled")
	}
}

func TestSpillFrameRoundTrip(t *testing.T) {
	codec, _ := pairCodecFor[int, int]()
	var buf []byte
	var scratch []byte
	want := []Pair[int, int]{{1, -5}, {1 << 40, 0}, {-9, 1 << 30}, {0, 0}}
	for _, p := range want {
		buf = appendFrame(buf, codec, p.Key, p.Val, &scratch)
	}
	var got []Pair[int, int]
	for len(buf) > 0 {
		kb, vb, n, err := decodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		p, err := codec.decodeHalves(kb, vb)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
		buf = buf[n:]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %v, want %v", got, want)
	}
}
