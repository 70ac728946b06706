package metrics

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Span is the trace record of one dataflow stage execution: what the stage
// was called, when it ran, how long it took, how many records it consumed
// and produced, how many bytes its shuffle moved across partitions, how well
// its combiner pre-aggregated, how often workers were re-executed, and a
// runtime sample (goroutines, heap) taken when the stage finished. It is the
// only per-stage record of a run: dataflow.Stats derives its work totals
// from the spans, and nothing else repeats their fields.
//
// Stage names use '/'-separated paths ("fc/count-unary",
// "ext/merge-candidates"); WriteSpanTree renders them as a tree. Sizes and
// byte counts are estimates (see EstimateSize), good for relative
// comparisons between runs, not for accounting.
type Span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // offset from the trace epoch (first stage)
	WallMS  float64 `json:"wall_ms"`

	RecordsIn  int64 `json:"records_in"`
	RecordsOut int64 `json:"records_out"`
	// MaxWorkerRecords is the most loaded worker's input count — the quantity
	// the critical-path model (dataflow.Stats.CriticalPath) sums per stage.
	MaxWorkerRecords int64   `json:"max_worker_records"`
	PerWorker        []int64 `json:"per_worker,omitempty"`

	// FusedOps attributes per-operator input-record counts inside a fused
	// narrow-operator chain (dataflow plan.go). Empty for unfused stages;
	// fused stages carry composite names joining the chained ops with '+'.
	// RecordsIn counts the chain's source records once, so the per-op counts
	// here are attribution detail on top of — not part of — the stage's
	// share of dataflow.Stats.TotalWork.
	FusedOps []FusedOp `json:"fused_ops,omitempty"`

	// ShuffleBytes estimates the bytes that crossed partitions during this
	// stage's shuffle (zero for partition-preserving operators).
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
	// MaterializedBytes estimates the output partitions a narrow stage (or a
	// fused chain, which materializes only its final output) wrote; zero for
	// wide operators and sources.
	MaterializedBytes int64 `json:"materialized_bytes,omitempty"`
	// CombinerIn/CombinerOut are the record counts before and after combiner
	// pre-aggregation (ReduceByKey's early aggregation); zero when the stage
	// has no combiner.
	CombinerIn  int64 `json:"combiner_in,omitempty"`
	CombinerOut int64 `json:"combiner_out,omitempty"`
	// SpilledBytes/SpilledRuns/MergePasses account the stage's out-of-core
	// execution (dataflow spill.go): bytes written to spill files, runs and
	// chunk segments flushed, and external-merge passes executed. All zero
	// for stages that stayed in memory.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	SpilledRuns  int64 `json:"spilled_runs,omitempty"`
	MergePasses  int64 `json:"merge_passes,omitempty"`
	// Retries counts the cluster ranks lost and respawned while this stage
	// (any of its phases) was the collective frontier; each replacement
	// replays the stage.
	Retries int `json:"retries,omitempty"`

	// Goroutines and HeapAllocBytes sample the runtime when the stage ended
	// (runtime.NumGoroutine, runtime.ReadMemStats().HeapAlloc).
	Goroutines     int    `json:"goroutines,omitempty"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`
	// MallocsDelta and AllocBytesDelta are the process-wide allocation deltas
	// (runtime.MemStats Mallocs and TotalAlloc) between the stage's start and
	// end, sampled on the same subsampling schedule as HeapAllocBytes (zero on
	// unsampled stages). Process-wide means concurrent GC and driver work leak
	// in; like ShuffleBytes, they are for relative comparisons between runs.
	MallocsDelta    uint64 `json:"mallocs_delta,omitempty"`
	AllocBytesDelta uint64 `json:"alloc_bytes_delta,omitempty"`
}

// FusedOp is one operator's attribution inside a fused chain span: its name
// and how many records entered it as the chain streamed.
type FusedOp struct {
	Name      string `json:"name"`
	RecordsIn int64  `json:"records_in"`
}

// spanNode is one level of the rendered span tree.
type spanNode struct {
	segment  string
	span     *Span // nil for pure path groups
	children []*spanNode
	index    map[string]*spanNode
}

func (n *spanNode) child(segment string) *spanNode {
	if n.index == nil {
		n.index = make(map[string]*spanNode)
	}
	if c, ok := n.index[segment]; ok {
		return c
	}
	c := &spanNode{segment: segment}
	n.index[segment] = c
	n.children = append(n.children, c)
	return c
}

// WriteSpanTree renders spans as a human-readable tree grouped by the
// '/'-separated segments of their names, in first-appearance order:
//
//	fc
//	  count-unary        2.1ms  in=12000 out=640  max=3020
//	  ars/pairs          0.8ms  in=640   out=77   max=180  shuffle=4.2KB
//
// Group lines aggregate their children's wall time.
func WriteSpanTree(w io.Writer, spans []Span) error {
	root := &spanNode{}
	for i := range spans {
		n := root
		for _, seg := range strings.Split(spans[i].Name, "/") {
			n = n.child(seg)
		}
		// A name collision (same stage name twice) gets its own sibling node
		// so neither execution is hidden.
		if n.span != nil {
			n = &spanNode{segment: spans[i].Name[strings.LastIndexByte(spans[i].Name, '/')+1:]}
			root.children = append(root.children, n)
		}
		n.span = &spans[i]
	}
	return writeSpanNodes(w, root.children, 0)
}

func writeSpanNodes(w io.Writer, nodes []*spanNode, depth int) error {
	for _, n := range nodes {
		indent := strings.Repeat("  ", depth)
		if n.span == nil {
			if _, err := fmt.Fprintf(w, "%s%s  (%s total)\n", indent, n.segment, fmtMS(subtreeWall(n))); err != nil {
				return err
			}
		} else {
			s := n.span
			line := fmt.Sprintf("%s%-*s  %8s  in=%-9d out=%-9d max=%d",
				indent, 32-2*depth, n.segment, fmtMS(s.WallMS), s.RecordsIn, s.RecordsOut, s.MaxWorkerRecords)
			if len(s.FusedOps) > 0 {
				line += fmt.Sprintf("  fused=%d", len(s.FusedOps))
			}
			if s.ShuffleBytes > 0 {
				line += fmt.Sprintf("  shuffle=%s", fmtBytes(s.ShuffleBytes))
			}
			if s.CombinerIn > 0 { // the share the combiner eliminated before the shuffle
				line += fmt.Sprintf("  combiner=%.0f%%", max(0, 1-float64(s.CombinerOut)/float64(s.CombinerIn))*100)
			}
			if s.SpilledBytes > 0 {
				line += fmt.Sprintf("  spill=%s/%druns", fmtBytes(s.SpilledBytes), s.SpilledRuns)
			}
			if s.MallocsDelta > 0 {
				line += fmt.Sprintf("  allocs=%d/%s", s.MallocsDelta, fmtBytes(int64(s.AllocBytesDelta)))
			}
			if s.Retries > 0 {
				line += fmt.Sprintf("  retries=%d", s.Retries)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		if err := writeSpanNodes(w, n.children, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func subtreeWall(n *spanNode) float64 {
	var total float64
	if n.span != nil {
		total += n.span.WallMS
	}
	for _, c := range n.children {
		total += subtreeWall(c)
	}
	return total
}

func fmtMS(ms float64) string {
	switch {
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	case ms >= 1:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.0fµs", ms*1000)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// EstimateSize estimates the serialized size of one record in bytes, by
// shallow reflection: fixed-size kinds count their in-memory width, strings
// and byte slices count their length plus a small header, other slices count
// their elements (recursively, to a small depth). The dataflow engine calls
// it on one sample record per partition and extrapolates, mirroring how the
// paper estimates shuffle volume from record counts × average width (§6.1).
func EstimateSize(v any) int64 {
	return estimateValue(reflect.ValueOf(v), 3)
}

func estimateValue(v reflect.Value, depth int) int64 {
	if !v.IsValid() || depth < 0 {
		return 0
	}
	switch v.Kind() {
	case reflect.String:
		return int64(v.Len()) + 8
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			return int64(v.Len()) + 8
		}
		var total int64 = 8
		n := v.Len()
		if n > 16 { // sample long slices
			est := estimateValue(v.Index(0), depth-1)
			return 8 + est*int64(n)
		}
		for i := 0; i < n; i++ {
			total += estimateValue(v.Index(i), depth-1)
		}
		return total
	case reflect.Struct:
		var total int64
		for i := 0; i < v.NumField(); i++ {
			total += estimateValue(v.Field(i), depth-1)
		}
		return total
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return 8
		}
		return 8 + estimateValue(v.Elem(), depth-1)
	case reflect.Map:
		var total int64 = 8
		iter := v.MapRange()
		i := 0
		for iter.Next() && i < 16 {
			total += estimateValue(iter.Key(), depth-1) + estimateValue(iter.Value(), depth-1)
			i++
		}
		if n := v.Len(); n > i && i > 0 {
			total = 8 + (total-8)/int64(i)*int64(n)
		}
		return total
	case reflect.Bool:
		return 1
	default:
		if sz := v.Type().Size(); sz > 0 {
			return int64(sz)
		}
		return 8
	}
}
