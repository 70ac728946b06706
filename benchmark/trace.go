package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public function: the spans inside the program are a later change.
type span struct {
	Name       string
	ID, Parent int // Parent is -1 for a root
	Start, End time.Duration
	Args       map[string]float64 // counts taken at the same boundary
}

// tracer keeps spans in memory and writes them out once, at exit, so
// recording costs a slice append. It is driven by one goroutine: begin/end
// nest like the calls they wrap.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id, and returns its
// duration in seconds.
func (t *tracer) end(id int, args map[string]float64) float64 {
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic("benchmark: spans must close innermost first")
	}
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[id]
	sp.End = time.Since(t.epoch)
	sp.Args = args
	return (sp.End - sp.Start).Seconds()
}

// selfSeconds sums, per span name, each span's duration minus the part of it
// its child spans cover, over the subtree of root.
func selfSeconds(spans []span, root int) map[string]float64 {
	children := make(map[int][]span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	out := make(map[string]float64)
	var walk func(sp span)
	walk = func(sp span) {
		kids := children[sp.ID]
		out[sp.Name] += (sp.End - sp.Start - covered(sp, kids)).Seconds()
		for _, k := range kids {
			walk(k)
		}
	}
	walk(spans[root])
	return out
}

// covered is the length of the union of the kids' intervals, clipped to sp.
func covered(sp span, kids []span) time.Duration {
	sorted := append([]span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total time.Duration
	at := sp.Start
	for _, k := range sorted {
		start, end := max(k.Start, at), min(k.End, sp.End)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// ui.perfetto.dev and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for _, sp := range t.spans {
		events = append(events, event{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: 1, Args: sp.Args,
			Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
