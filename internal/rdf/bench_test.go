package rdf_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// BenchmarkStreamNTriples measures the N-Triples reader at several shard
// counts, folding its blocks into a Dataset the way ingest does. Run with
//
//	go test ./internal/rdf -run '^$' -bench StreamNTriples -benchmem

// benchDocument synthesizes an N-Triples corpus with term reuse patterns like
// real data: many subjects, few predicates, a mid-sized object vocabulary.
func benchDocument(triples int) []byte {
	var b strings.Builder
	b.Grow(triples * 80)
	for i := 0; i < triples; i++ {
		fmt.Fprintf(&b, "<http://example.org/entity/%d> <http://example.org/p%d> <http://example.org/value/%d> .\n",
			i/4, i%7, i%997)
		if i%5 == 0 {
			fmt.Fprintf(&b, "<http://example.org/entity/%d> <http://example.org/label> \"entity %d\"@en .\n", i/4, i/4)
		}
	}
	return []byte(b.String())
}

func BenchmarkStreamNTriples(b *testing.B) {
	data := benchDocument(50000)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				ds := rdf.NewDataset()
				var remap []rdf.Value
				err := rdf.StreamNTriples(bytes.NewReader(data), rdf.StreamConfig{Shards: shards}, func(blk *rdf.TermBlock) error {
					remap = ds.AppendBlock(blk, remap)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
