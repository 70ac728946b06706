package dataflow

import (
	"fmt"
	"testing"
)

// Microbenchmarks for the engine's hot kernels. Run with
//
//	go test ./internal/dataflow -run '^$' -bench . -benchmem
//
// The -benchmem columns are the point: the scatter/reduce rewrites are gated
// on allocations per operation, not only wall time (single-core CI machines
// cannot show goroutine parallelism as elapsed-time wins).

// benchPairs builds n keyed records over k distinct keys.
func benchPairs(n, k int) []Pair[int, int] {
	data := make([]Pair[int, int], n)
	for i := range data {
		data[i] = Pair[int, int]{i % k, 1}
	}
	return data
}

func BenchmarkReduceByKey(b *testing.B) {
	c := NewContext(4)
	data := benchPairs(100000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Parallelize(c, "in", data)
		ReduceByKey(d, "count", func(a, b int) int { return a + b })
	}
}

func BenchmarkShuffleByKey(b *testing.B) {
	c := NewContext(4)
	data := benchPairs(100000, 1000)
	d := Parallelize(c, "in", data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := shuffleByKey(d, "shuffle"); !ok {
			b.Fatal(c.Err())
		}
	}
}

func BenchmarkGroupByKey(b *testing.B) {
	c := NewContext(4)
	data := benchPairs(100000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Parallelize(c, "in", data)
		GroupByKey(d, "group")
	}
}

func BenchmarkGlobalReduce(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := NewContext(workers)
			data := make([]int, 100000)
			for i := range data {
				data[i] = i
			}
			d := Parallelize(c, "in", data)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := GlobalReduce(d, "sum", func(a, b int) int { return a + b }); !ok {
					b.Fatal(c.Err())
				}
			}
		})
	}
}

func BenchmarkFilter(b *testing.B) {
	c := NewContext(4)
	data := make([]int, 100000)
	for i := range data {
		data[i] = i
	}
	d := Parallelize(c, "in", data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Materialize forces the lazily planned stage so the benchmark
		// measures execution, not plan construction.
		Filter(d, "even", func(v int) bool { return v%2 == 0 }).Materialize()
	}
}

// benchChain applies ops narrow operators to d and forces the result: a
// Filter dropping nothing followed by alternating Maps.
func benchChain(d *Dataset[int], ops int) *Dataset[int] {
	out := Filter(d, "keep", func(v int) bool { return v >= 0 })
	for i := 1; i < ops; i++ {
		step := i
		out = Map(out, fmt.Sprintf("m%d", step), func(v int) int { return v + step })
	}
	return out.Materialize()
}

// BenchmarkNarrowChain measures 2-, 4-, and 6-operator narrow chains: each
// streams every record through all of its operators into a single output
// buffer, so ns/op grows with chain length and allocs/op does not.
func BenchmarkNarrowChain(b *testing.B) {
	data := make([]int, 100000)
	for i := range data {
		data[i] = i
	}
	for _, ops := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			c := NewContext(4)
			d := Parallelize(c, "in", data).Materialize()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchChain(d, ops)
			}
		})
	}
}
