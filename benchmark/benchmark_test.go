package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndSummary(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{9, 7, 8}
	s := summarize(in)
	if s != (summary{Value: 8, Min: 7, Max: 9, N: 3}) {
		t.Errorf("summarize = %+v", s)
	}
	if !slices.Equal(in, []float64{9, 7, 8}) {
		t.Errorf("summarize reordered its input: %v", in)
	}
	if f := floorOf(in); f.Value != 7 || f.N != 3 {
		t.Errorf("floorOf = %+v", f)
	}
	if summarize(nil).N != 0 {
		t.Error("an empty sample must have N = 0, which runOnce reports as a missing metric")
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{3000: 0.99, 1000: 0.99, 999: 0.95, 10000: 0.999, 200: 0.95, 100: 0.9, 40: 0.75, 20: 0.5, 5: 0.5} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentileSorted(sorted, 0.99); got != 99 {
		t.Errorf("nearest-rank p99 of 1..100 = %v, want 99", got)
	}
	if got := percentileSorted(sorted, 0.5); got != 50 {
		t.Errorf("nearest-rank p50 of 1..100 = %v, want 50", got)
	}
}

// Self time is a span's duration minus the part its children cover: children
// that overlap each other or stick out of the parent are not counted twice.
func TestSelfSeconds(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", ID: 1, Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", ID: 2, Parent: 0, Start: 30 * ms, End: 60 * ms},  // overlaps a by 10 ms
		{Name: "b", ID: 3, Parent: 0, Start: 90 * ms, End: 120 * ms}, // sticks out by 20 ms
		{Name: "leaf", ID: 4, Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "other", ID: 5, Parent: -1, Start: 0, End: 500 * ms}, // not under root
	}
	got := selfSeconds(spans, 0)
	want := map[string]float64{"root": 0.040, "a": 0.025, "b": 0.060, "leaf": 0.005}
	if len(got) != len(want) {
		t.Fatalf("selfSeconds = %v, want %v", got, want)
	}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerNestsAndWritesChromeJSON(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner, map[string]float64{"n": 3})
	tr.end(outer, nil)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "sub", "x.trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "inner" || doc.TraceEvents[1].Ph != "X" {
		t.Errorf("trace events: %+v", doc.TraceEvents)
	}
}

// A bound is compared in the metric's bad direction.
func TestWorsening(t *testing.T) {
	cases := []struct {
		base, cand float64
		better     string
		want       float64
	}{
		{10, 11, "lower", 0.1},   // slower is worse
		{10, 9, "lower", -0.1},   // faster is better
		{100, 90, "higher", 0.1}, // less throughput is worse
		{100, 120, "higher", -0.2},
	}
	for _, c := range cases {
		if got := worsening(c.base, c.cand, c.better); !near(got, c.want) {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", c.base, c.cand, c.better, got, c.want)
		}
	}
}

// The quartiles are those of Python's statistics.quantiles(values, n=4).
func TestQuartileSpread(t *testing.T) {
	cases := []struct {
		values []float64
		want   float64
	}{
		{[]float64{1, 2, 4, 8, 16}, (12.0 - 1.5) / 4},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, (8.25 - 2.75) / 5.5},
		{[]float64{3.1, 3.3, 3.2, 3.9, 3.25, 3.3, 3.15, 4.0, 3.35, 3.28}, (3.4875 - 3.1875) / 3.29},
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5},
		{[]float64{7}, 0},
	}
	for _, c := range cases {
		if got := quartileSpread(c.values); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.values, got, c.want)
		}
	}
}

func TestReportedSupport(t *testing.T) {
	if got := reportedSupport("(s, p=<a>) ⊆ (s, p=<b>)  [support=15779]"); got != 15779 {
		t.Errorf("got %d", got)
	}
	if got := reportedSupport("(s, p=<a>) ⊆ (s, p=<b>)"); got != -1 {
		t.Errorf("a statement without support must not certify: got %d", got)
	}
}

// BENCHMARK.json and the code name the same workloads and metrics, and the
// file stays inside the limits the acceptance driver refuses a file for.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: file has %q, code has %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if (metricDef{m.Name, m.Unit, m.Better}) != want[i] {
				t.Errorf("%s %d: file has %+v, code has %+v", kind, i, m, want[i])
			}
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEndMetrics, true)
	compare("per_layer", file.PerLayer, perLayerMetrics, false)
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// The same seed writes the same bytes; another seed writes other bytes of
// the same triples.
func TestInputsAreDeterministic(t *testing.T) {
	a, err := generateInputs("Countries", 1, 2, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateInputs("Countries", 1, 2, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := generateInputs("Countries", 1, 2, 8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.SHA256, b.SHA256) {
		t.Errorf("seed 7 twice: %v and %v", a.SHA256, b.SHA256)
	}
	if slices.Equal(a.SHA256, c.SHA256) || a.Triples != c.Triples {
		t.Errorf("seed 8 must permute seed 7's triples: %+v vs %+v", a, c)
	}
	if len(a.Files) != 2 || filepath.Base(a.Glob) != "countries-*.nt" {
		t.Errorf("shards: %v, glob %s", a.Files, a.Glob)
	}
	sum, err := fileSHA256(a.Files[0])
	if err != nil || sum != a.SHA256[0] {
		t.Errorf("recorded sha256 %s, file has %s (%v)", a.SHA256[0], sum, err)
	}
}

// The smoke pass runs every workload, traced and not, on inputs a fiftieth
// the size: every code path, every verification, every metric, in seconds.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOnce(root, build, w, smokeSizes, defaultSeed, 0, trace, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %+v", w.Name, trace, res)
			}
			for _, d := range endToEndMetrics {
				if m, ok := res.Metrics[d.Name]; !trace && (!ok || m.Value <= 0 || m.Unit != d.Unit) {
					t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, m)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(build, "trace", w.Name+"-seed1.trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(build, "run-*"))
	if len(left) > 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}
