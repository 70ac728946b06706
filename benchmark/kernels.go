package main

import (
	"fmt"
	"time"

	"repro/internal/cind"
	"repro/internal/dataflow"
	_ "repro/internal/fcdetect" // registers the spill codec of Pair[cind.Condition, int]
	"repro/internal/rdf"
)

// The engine kernels are timed alone at the cardinality of scan_heavy's
// fcd/unary-sum stage, the pipeline's largest keyed aggregation: 600 k
// condition-count pairs over 135 k distinct conditions, two workers.
const (
	kernelPairs = 600_000
	kernelKeys  = 135_000
	// spillBudget is small enough that the keyed state of the reduce cannot
	// stay in memory, which sends it through the disk path that no
	// end-to-end workload takes. A smaller input gets its share of it.
	spillBudget = 1 << 20
)

type condCount = dataflow.Pair[cind.Condition, int]

func kernelInput(n, keys int) []condCount {
	data := make([]condCount, n)
	for i := range data {
		// A multiplicative hash spreads the keys without a generator: the
		// kernels' input is the same on every run and seed.
		k := uint32(i) * 2654435761 % uint32(keys)
		data[i] = condCount{Key: cind.Unary(rdf.Attrs[k%3], rdf.Value(k)), Val: 1}
	}
	return data
}

// runKernels times each kernel reps times after one warm-up and records the
// median cost per input record under the kernels' names. spillDir is where
// the budgeted reduce writes its runs.
func runKernels(tr *tracer, pairs, keys, reps int, spillDir string, m map[string]float64) error {
	id := tr.begin("kernels")
	defer func() { tr.end(id, nil) }()
	data := kernelInput(pairs, keys)
	budget := int64(spillBudget) * int64(pairs) / kernelPairs
	sum := func(a, b int) int { return a + b }

	var spilledMB float64
	kernels := []struct {
		name string
		run  func() (*dataflow.Context, int)
	}{
		{"kernel.narrow_chain_ns_per_rec", func() (*dataflow.Context, int) {
			c := dataflow.NewContext(discoveryWorkers)
			d := dataflow.Parallelize(c, "in", data)
			d = dataflow.Filter(d, "keep", func(p condCount) bool { return p.Val > 0 })
			d = dataflow.Map(d, "inc", func(p condCount) condCount { p.Val++; return p })
			d = dataflow.Map(d, "dec", func(p condCount) condCount { p.Val--; return p })
			return c, d.Len()
		}},
		{"kernel.reduce_by_key_ns_per_rec", func() (*dataflow.Context, int) {
			c := dataflow.NewContext(discoveryWorkers)
			return c, dataflow.ReduceByKey(dataflow.Parallelize(c, "in", data), "sum", sum).Len()
		}},
		{"kernel.group_by_key_ns_per_rec", func() (*dataflow.Context, int) {
			c := dataflow.NewContext(discoveryWorkers)
			return c, dataflow.GroupByKey(dataflow.Parallelize(c, "in", data), "group").Len()
		}},
		{"kernel.cogroup_ns_per_rec", func() (*dataflow.Context, int) {
			c := dataflow.NewContext(discoveryWorkers)
			half := len(data) / 2
			a := dataflow.Parallelize(c, "a", data[:half])
			b := dataflow.Parallelize(c, "b", data[half:])
			return c, dataflow.CoGroup(a, b, "cogroup").Len()
		}},
		{"kernel.spill_reduce_ns_per_rec", func() (*dataflow.Context, int) {
			c := dataflow.NewContext(discoveryWorkers, dataflow.WithMemoryBudget(budget), dataflow.WithSpillDir(spillDir))
			n := dataflow.ReduceByKey(dataflow.Parallelize(c, "in", data), "sum", sum).Len()
			spilledMB = float64(c.Stats().Metrics().Snapshot().Counters["dataflow.spill.bytes"]) / (1 << 20)
			return c, n
		}},
	}
	for _, k := range kernels {
		var ns []float64
		for i := 0; i <= reps; i++ {
			kid := tr.begin(k.name)
			t0 := time.Now()
			c, n := k.run()
			elapsed := time.Since(t0)
			tr.end(kid, map[string]float64{"out": float64(n)})
			if err := c.Err(); err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
			if n == 0 {
				return fmt.Errorf("%s: empty output", k.name)
			}
			if i > 0 { // the first run warms the allocator and the page cache
				ns = append(ns, float64(elapsed.Nanoseconds())/float64(len(data)))
			}
		}
		m[k.name] = median(ns)
	}
	if spilledMB == 0 {
		return fmt.Errorf("kernel.spill_reduce: nothing spilled under a %d-byte budget", budget)
	}
	m["kernel.spill_mb"] = spilledMB
	return nil
}
