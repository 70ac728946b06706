package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(1)
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Error("Counter lookup is not idempotent")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Add(1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8000 {
		t.Errorf("counter = %d, want 8000", s.Counters["c"])
	}
}

func TestSnapshotMarshalsDeterministically(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	j1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r.Snapshot())
	if string(j1) != string(j2) {
		t.Errorf("snapshot marshalling unstable:\n%s\n%s", j1, j2)
	}
}

func TestWriteSpanTree(t *testing.T) {
	spans := []Span{
		{Name: "input", WallMS: 1.5, RecordsIn: 100, RecordsOut: 100, MaxWorkerRecords: 50},
		{Name: "fc/count-unary", WallMS: 2, RecordsIn: 300, RecordsOut: 40, MaxWorkerRecords: 160,
			ShuffleBytes: 2048, CombinerIn: 300, CombinerOut: 60},
		{Name: "fc/ars/pairs", WallMS: 0.5, RecordsIn: 40, RecordsOut: 7, MaxWorkerRecords: 22, Retries: 2},
	}
	var b strings.Builder
	if err := WriteSpanTree(&b, spans); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"input", "fc", "count-unary", "pairs", "shuffle=2.0KB", "combiner=80%", "retries=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree lacks %q:\n%s", want, out)
		}
	}
	// Children are indented below their group.
	if strings.Index(out, "fc") > strings.Index(out, "count-unary") {
		t.Errorf("group does not precede child:\n%s", out)
	}
}

func TestWriteSpanTreeDuplicateNames(t *testing.T) {
	spans := []Span{
		{Name: "x/combine", WallMS: 1, RecordsIn: 10},
		{Name: "x/combine", WallMS: 2, RecordsIn: 20},
	}
	var b strings.Builder
	if err := WriteSpanTree(&b, spans); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "combine"); n != 2 {
		t.Errorf("duplicate span collapsed: %d occurrences\n%s", n, b.String())
	}
}

func TestEstimateSize(t *testing.T) {
	type pair struct {
		Key string
		Val int64
	}
	if sz := EstimateSize(int64(1)); sz != 8 {
		t.Errorf("int64 size = %d, want 8", sz)
	}
	s := EstimateSize(pair{Key: "hello", Val: 3})
	if s < 13 || s > 64 {
		t.Errorf("pair size = %d, want a small positive estimate", s)
	}
	long := EstimateSize(make([]int32, 1000))
	if long < 4000 {
		t.Errorf("long slice size = %d, want >= 4000", long)
	}
	if EstimateSize(nil) != 0 {
		t.Errorf("nil size = %d, want 0", EstimateSize(nil))
	}
	if sz := EstimateSize(map[string]int{"a": 1, "bb": 2}); sz <= 0 {
		t.Errorf("map size = %d, want positive", sz)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := Span{Name: "x", WallMS: 1.25, RecordsIn: 10, RecordsOut: 5, MaxWorkerRecords: 6,
		ShuffleBytes: 100, CombinerIn: 10, CombinerOut: 5, Retries: 1, Goroutines: 4, HeapAllocBytes: 1 << 20}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip changed span: %+v != %+v", out, in)
	}
}
