package source

import (
	"encoding/binary"

	"repro/internal/rdf"
)

// HashPartitioner decides which worker partition owns a triple as blocks
// arrive from the stream. It spreads triples by an FNV-1a hash of the whole
// encoded triple (uvarint subject, predicate, object IDs — the same byte form
// the wire layer ships), optimizing for load balance. Place is a pure
// function of the triple's global dictionary IDs and the worker count: every
// process in a cluster places independently and the placements agree.
// Placement never changes the pipeline's output, only how evenly ingest
// spreads and how many bytes later shuffles move.
type HashPartitioner struct{}

func (HashPartitioner) Place(t rdf.Triple, workers int) int {
	if workers <= 1 {
		return 0
	}
	var buf [3 * binary.MaxVarintLen32]byte
	n := binary.PutUvarint(buf[:], uint64(t.S))
	n += binary.PutUvarint(buf[n:], uint64(t.P))
	n += binary.PutUvarint(buf[n:], uint64(t.O))
	return int(fnv1a(buf[:n]) % uint64(workers))
}

// fnv1a is the 64-bit FNV-1a hash, unseeded: placement must agree across
// processes without any per-run state.
func fnv1a(b []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
