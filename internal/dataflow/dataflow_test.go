package dataflow

import (
	"sort"
	"testing"
	"testing/quick"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizePartitionsEverything(t *testing.T) {
	for _, w := range []int{1, 2, 4, 7, 16} {
		c := NewContext(w)
		d := Parallelize(c, "in", ints(100))
		if d.Len() != 100 {
			t.Fatalf("w=%d: Len = %d, want 100", w, d.Len())
		}
		got := Collect(d)
		sort.Ints(got)
		for i, v := range got {
			if v != i {
				t.Fatalf("w=%d: lost or duplicated records", w)
			}
		}
	}
}

func TestParallelizeMoreWorkersThanItems(t *testing.T) {
	c := NewContext(10)
	d := Parallelize(c, "in", ints(3))
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}

func TestNewContextClampsWorkers(t *testing.T) {
	if NewContext(0).Workers() != 1 || NewContext(-5).Workers() != 1 {
		t.Errorf("worker count not clamped to 1")
	}
}

func TestMapAndFilter(t *testing.T) {
	c := NewContext(3)
	d := Parallelize(c, "in", ints(20))
	doubled := Map(d, "double", func(x int) int { return 2 * x })
	even := Filter(doubled, "keep<20", func(x int) bool { return x < 20 })
	got := Collect(even)
	sort.Ints(got)
	want := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFlatMap(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", []string{"ab", "c", ""})
	chars := FlatMap(d, "explode", func(s string, emit func(byte)) {
		for i := 0; i < len(s); i++ {
			emit(s[i])
		}
	})
	got := Collect(chars)
	if len(got) != 3 {
		t.Fatalf("got %d chars, want 3", len(got))
	}
}

func TestReduceByKeyCountsLikeSequential(t *testing.T) {
	words := []string{"a", "b", "a", "c", "b", "a", "d", "a"}
	wantCounts := map[string]int{"a": 4, "b": 2, "c": 1, "d": 1}
	for _, w := range []int{1, 2, 5} {
		c := NewContext(w)
		d := Parallelize(c, "in", words)
		pairs := Map(d, "pair", func(s string) Pair[string, int] { return Pair[string, int]{s, 1} })
		counts := ReduceByKey(pairs, "count", func(a, b int) int { return a + b })
		got := map[string]int{}
		for _, kv := range Collect(counts) {
			if _, dup := got[kv.Key]; dup {
				t.Fatalf("w=%d: key %q emitted twice", w, kv.Key)
			}
			got[kv.Key] = kv.Val
		}
		if len(got) != len(wantCounts) {
			t.Fatalf("w=%d: got %v, want %v", w, got, wantCounts)
		}
		for k, v := range wantCounts {
			if got[k] != v {
				t.Fatalf("w=%d: count[%q] = %d, want %d", w, k, got[k], v)
			}
		}
	}
}

func TestGroupByKeyGathersAllValues(t *testing.T) {
	c := NewContext(4)
	type kv = Pair[int, string]
	d := Parallelize(c, "in", []kv{{1, "a"}, {2, "b"}, {1, "c"}, {3, "d"}, {1, "e"}})
	groups := GroupByKey(d, "group")
	got := map[int][]string{}
	for _, g := range Collect(groups) {
		got[g.Key] = g.Val
	}
	if len(got[1]) != 3 || len(got[2]) != 1 || len(got[3]) != 1 {
		t.Fatalf("groups = %v", got)
	}
	members := map[string]bool{}
	for _, v := range got[1] {
		members[v] = true
	}
	if !members["a"] || !members["c"] || !members["e"] {
		t.Fatalf("group 1 = %v", got[1])
	}
}

func TestCoGroupFullOuter(t *testing.T) {
	c := NewContext(3)
	left := Parallelize(c, "l", []Pair[string, int]{{"x", 1}, {"y", 2}, {"x", 3}})
	right := Parallelize(c, "r", []Pair[string, string]{{"x", "a"}, {"z", "b"}})
	joined := CoGroup(left, right, "join")
	got := map[string]CoGrouped[string, int, string]{}
	for _, g := range Collect(joined) {
		got[g.Key] = g
	}
	if len(got) != 3 {
		t.Fatalf("keys = %d, want 3 (x, y, z)", len(got))
	}
	if len(got["x"].Left) != 2 || len(got["x"].Right) != 1 {
		t.Errorf("x = %+v", got["x"])
	}
	if len(got["y"].Left) != 1 || len(got["y"].Right) != 0 {
		t.Errorf("y = %+v", got["y"])
	}
	if len(got["z"].Left) != 0 || len(got["z"].Right) != 1 {
		t.Errorf("z = %+v", got["z"])
	}
}

func TestCoGroupContextMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for cross-context cogroup")
		}
	}()
	a := Parallelize(NewContext(2), "a", []Pair[int, int]{{1, 1}})
	b := Parallelize(NewContext(2), "b", []Pair[int, int]{{1, 1}})
	CoGroup(a, b, "bad")
}

func TestPartitionByPlacesRecords(t *testing.T) {
	c := NewContext(4)
	d := Parallelize(c, "in", ints(40))
	byMod := PartitionBy(d, "mod", func(x int) int { return x })
	for w, part := range byMod.Partitions() {
		for _, x := range part {
			if x%4 != w {
				t.Fatalf("record %d landed on worker %d", x, w)
			}
		}
	}
	// Negative partition indexes must wrap, not panic.
	neg := PartitionBy(d, "neg", func(x int) int { return -x })
	if neg.Len() != 40 {
		t.Fatalf("negative partitioning lost records")
	}
}

func TestMapPartitionsSeesWholePartition(t *testing.T) {
	c := NewContext(3)
	d := Parallelize(c, "in", ints(30))
	sums := MapPartitions(d, "sum", func(worker int, items []int, emit func(int)) {
		s := 0
		for _, x := range items {
			s += x
		}
		emit(s)
	})
	total := 0
	for _, s := range Collect(sums) {
		total += s
	}
	if total != 29*30/2 {
		t.Fatalf("partition sums total %d, want %d", total, 29*30/2)
	}
}

func TestUnionKeepsAllRecords(t *testing.T) {
	c := NewContext(3)
	a := Parallelize(c, "a", ints(10))
	b := Parallelize(c, "b", ints(5))
	u := Union(a, b, "union")
	if u.Len() != 15 {
		t.Fatalf("union has %d records, want 15", u.Len())
	}
	counts := map[int]int{}
	for _, v := range Collect(u) {
		counts[v]++
	}
	for i := 0; i < 5; i++ {
		if counts[i] != 2 {
			t.Errorf("value %d appears %d times, want 2", i, counts[i])
		}
	}
}

func TestUnionContextMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for cross-context union")
		}
	}()
	Union(Parallelize(NewContext(2), "a", ints(1)), Parallelize(NewContext(2), "b", ints(1)), "bad")
}

func TestGlobalReduce(t *testing.T) {
	c := NewContext(4)
	d := Parallelize(c, "in", ints(10))
	sum, ok := GlobalReduce(d, "sum", func(a, b int) int { return a + b })
	if !ok || sum != 45 {
		t.Fatalf("GlobalReduce = (%d, %v), want (45, true)", sum, ok)
	}
	empty := Parallelize(c, "empty", []int(nil))
	if _, ok := GlobalReduce(empty, "sum", func(a, b int) int { return a + b }); ok {
		t.Errorf("GlobalReduce on empty dataset reported a value")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(10))
	Map(d, "noop", func(x int) int { return x }).Materialize()
	st := c.Stats()
	if got := st.TotalWork(); got != 20 { // 10 parallelize + 10 map
		t.Fatalf("TotalWork = %d, want 20", got)
	}
	if st.CriticalPath() <= 0 || st.CriticalPath() > 20 {
		t.Fatalf("CriticalPath = %d out of range", st.CriticalPath())
	}
	if s := st.Speedup(); s < 1 || s > 2 {
		t.Fatalf("Speedup = %f out of [1,2]", s)
	}
	if len(st.Stages()) != 2 {
		t.Fatalf("stages = %d, want 2", len(st.Stages()))
	}
	if st.String() == "" {
		t.Errorf("empty stats rendering")
	}
}

func TestSpeedupEmptyStats(t *testing.T) {
	if s := (&Stats{}).Speedup(); s != 1 {
		t.Errorf("Speedup of empty stats = %f, want 1", s)
	}
}

// Property: word counting via the engine equals sequential counting for any
// input and any worker count.
func TestQuickReduceByKeyEquivalence(t *testing.T) {
	f := func(data []uint8, workers uint8) bool {
		w := int(workers)%8 + 1
		c := NewContext(w)
		d := Parallelize(c, "in", data)
		pairs := Map(d, "pair", func(b uint8) Pair[uint8, int] { return Pair[uint8, int]{b, 1} })
		red := ReduceByKey(pairs, "count", func(a, b int) int { return a + b })
		want := map[uint8]int{}
		for _, b := range data {
			want[b]++
		}
		got := map[uint8]int{}
		for _, kv := range Collect(red) {
			got[kv.Key] = kv.Val
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: shuffling never loses or duplicates records.
func TestQuickGroupByKeyPreservesMultiplicity(t *testing.T) {
	f := func(keys []int16, workers uint8) bool {
		w := int(workers)%8 + 1
		c := NewContext(w)
		pairs := make([]Pair[int16, int], len(keys))
		for i, k := range keys {
			pairs[i] = Pair[int16, int]{k, i}
		}
		d := Parallelize(c, "in", pairs)
		groups := GroupByKey(d, "group")
		n := 0
		for _, g := range Collect(groups) {
			n += len(g.Val)
		}
		return n == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
