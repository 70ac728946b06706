package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/pprof"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
	"repro/internal/source"
)

// This file roots the pipeline on the streaming source layer. Three roles
// share one deterministic driver:
//
//   - Single-process: the files are streamed in canonical document order,
//     the dictionary grows incrementally block by block, and each triple is
//     placed into its hash partition as it arrives. Nothing
//     but the encoded triples and the dictionary is ever resident.
//
//   - Worker rank r of a cluster: r streams only the files assigned to it
//     (file i goes to rank i mod workers), building a per-file term table
//     and per-file triples encoded against it. The dictionary-merge
//     collective — one gather of every rank's per-file tables — lets every
//     process replay the canonical document-order interning locally, so all
//     ranks agree on the global dictionary without any process having read
//     the whole input. The rank then remaps its triples to global IDs and a
//     placement shuffle routes them to their hash partitions.
//
//   - Coordinator: contributes nothing, consumes the dictionary-merge
//     gather (it needs the dictionary to canonicalize results), and passes
//     all-nil partitions to the dataflow root — it never materializes a
//     single triple, which IngestStats.LocalTriples asserts.
//
// Tables are gathered per file, not per rank: with files interleaved across
// ranks, rank-level tables would intern terms in rank order, not document
// order, and the IDs would diverge from a sequential read. Keying by global
// file index keeps the merge exactly the document-order fold of
// Dataset.AppendBlock that single-process ingest performs, so the Source
// differential suite can demand byte-identical dictionaries across every
// ingest mode.

// tripleCodec ships rdf.Triple over the wire for the placement shuffle: three
// uvarint ids. Bytes that are not exactly three uvarints of 32-bit ids fail
// with dataflow.ErrCorruptRecord; ingestDistributed fails the job on ids at
// or beyond the dictionary's size (source/check-ids).
type tripleCodec struct{}

func (tripleCodec) AppendValue(dst []byte, t rdf.Triple) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.S))
	dst = binary.AppendUvarint(dst, uint64(t.P))
	return binary.AppendUvarint(dst, uint64(t.O))
}

func (tripleCodec) DecodeValue(src []byte) (rdf.Triple, error) {
	var ids [3]rdf.Value
	for i := range ids {
		v, n := binary.Uvarint(src)
		if n <= 0 || v > math.MaxUint32 {
			return rdf.Triple{}, fmt.Errorf("%w: triple id %d", dataflow.ErrCorruptRecord, i)
		}
		ids[i], src = rdf.Value(v), src[n:]
	}
	if len(src) > 0 {
		return rdf.Triple{}, fmt.Errorf("%w: %d bytes after a triple", dataflow.ErrCorruptRecord, len(src))
	}
	return rdf.Triple{S: ids[0], P: ids[1], O: ids[2]}, nil
}

func init() {
	dataflow.RegisterValueCodec[rdf.Triple](tripleCodec{})
}

// DiscoverSource runs the selected pipeline over a streamed source spec:
// the streaming counterpart of DiscoverContext, returning the global
// dictionary alongside the result (the caller holds no Dataset to read it
// from). In cluster mode every worker loads its own file assignment and the
// coordinator never materializes the dataset; output is byte-identical to a
// single-process in-memory run over the same files, which the Source
// differential suite pins across worker counts and chaos plans.
func DiscoverSource(ctx context.Context, spec source.Spec, cfg Config) (*cind.Result, *rdf.Dictionary, *RunStats, error) {
	cfg = cfg.normalized()
	resolved, err := spec.Resolve()
	if err != nil {
		return nil, nil, &RunStats{}, err
	}
	h := newHarness(ctx, cfg)
	defer pprof.SetGoroutineLabels(h.ctx)
	h.phase("ingest")
	ing := &IngestStats{Files: len(resolved.Files)}
	h.stats.Ingest = ing

	var triples *dataflow.Dataset[rdf.Triple]
	var dict *rdf.Dictionary
	if h.dfctx.Distributed() {
		triples, dict, err = ingestDistributed(h, resolved, ing)
	} else {
		triples, dict, err = ingestLocal(h, resolved, ing)
	}
	if err != nil {
		_, stats, _ := h.finish(err)
		return nil, dict, stats, err
	}
	h.stats.Triples = int(sum(ing.PerRank))
	res, stats, err := h.run(triples, dict)
	return res, dict, stats, err
}

func sum(ns []int64) int64 {
	var t int64
	for _, n := range ns {
		t += n
	}
	return t
}

// ingestLocal streams every file in document order, growing the dictionary
// incrementally and placing each triple as its block arrives.
func ingestLocal(h *harness, resolved *source.Resolved, ing *IngestStats) (*dataflow.Dataset[rdf.Triple], *rdf.Dictionary, error) {
	workers := h.dfctx.Workers()
	dict := rdf.NewDictionary()
	parts := make([][]rdf.Triple, workers)
	var remap []rdf.Value
	for i := range resolved.Files {
		path := resolved.Files[i].Path
		err := resolved.StreamFile(i, func(blk *rdf.TermBlock) error {
			remap = remap[:0]
			for _, term := range blk.Terms {
				remap = append(remap, dict.Encode(term))
			}
			for _, bt := range blk.Triples {
				t := rdf.Triple{S: remap[bt.S], P: remap[bt.P], O: remap[bt.O]}
				w := source.HashPartitioner{}.Place(t, workers)
				parts[w] = append(parts[w], t)
			}
			for _, e := range blk.Errs {
				ing.Skipped = append(ing.Skipped, source.Malformed{Path: path, Err: e})
			}
			return nil
		})
		if err != nil {
			return nil, dict, err
		}
	}
	ing.PerRank = make([]int64, workers)
	for w, p := range parts {
		ing.PerRank[w] = int64(len(p))
		ing.LocalTriples += int64(len(p))
	}
	ing.SkippedLines = int64(len(ing.Skipped))
	// The root span keeps the in-memory path's name so trace snapshots and
	// bench baselines stay comparable across ingest modes.
	return dataflow.FromPartitions(h.dfctx, "input", parts, nil), dict, nil
}

// fileTable is one input file's ingest summary: its term table in
// first-occurrence order plus counts. On the loading rank it also carries
// the file's triples, encoded against the table.
type fileTable struct {
	index   int
	terms   []string
	triples []rdf.BlockTriple // loading rank only; nil after decode
	ntrips  int64
	skipped int64
}

// ingestDistributed is the worker-local ingest driver, executed in lockstep
// by the coordinator and every worker rank.
func ingestDistributed(h *harness, resolved *source.Resolved, ing *IngestStats) (*dataflow.Dataset[rdf.Triple], *rdf.Dictionary, error) {
	c := h.dfctx
	workers := c.Workers()
	rank := c.Rank()
	ing.Distributed, ing.Rank = true, rank

	// A worker streams its assigned files (file i → rank i mod workers); the
	// coordinator streams nothing and contributes an empty body.
	var local []*fileTable
	var body []byte
	if rank >= 0 {
		for i := range resolved.Files {
			if i%workers != rank {
				continue
			}
			ft, err := loadFileTable(resolved, i)
			if err != nil {
				return nil, nil, err
			}
			local = append(local, ft)
			body = ft.append(body)
		}
	}

	// Dictionary-merge collective: every process receives every rank's
	// per-file tables and replays the canonical document-order interning.
	blobs, ok := dataflow.Gather(c, "source/dict", body)
	if !ok {
		return nil, nil, c.Err()
	}
	tables := make([]*fileTable, len(resolved.Files))
	for _, ft := range local {
		tables[ft.index] = ft // keep the local triples; decode would drop them
	}
	for r, blob := range blobs {
		if r == rank {
			continue
		}
		fts, err := decodeFileTables(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("core: dictionary merge from rank %d: %w", r, err)
		}
		for _, ft := range fts {
			if ft.index < 0 || ft.index >= len(tables) || tables[ft.index] != nil {
				return nil, nil, fmt.Errorf("core: dictionary merge from rank %d: bad file index %d", r, ft.index)
			}
			tables[ft.index] = ft
		}
	}
	dict := rdf.NewDictionary()
	counts := make([]int64, workers)
	var skipped int64
	for i, ft := range tables {
		if ft == nil {
			return nil, nil, fmt.Errorf("core: dictionary merge: no table for file %d", i)
		}
		for _, term := range ft.terms {
			dict.Encode(term)
		}
		counts[i%workers] += ft.ntrips
		skipped += ft.skipped
	}

	// The loading rank remaps its file-local triples to global IDs, walking
	// its files in document order; everyone else roots empty partitions with
	// the gathered counts so span accounting still covers the whole input.
	parts := make([][]rdf.Triple, workers)
	if rank >= 0 {
		mine := make([]rdf.Triple, 0, counts[rank])
		var remap []rdf.Value
		for _, ft := range local {
			remap = remap[:0]
			for _, term := range ft.terms {
				id, ok := dict.Lookup(term)
				if !ok {
					return nil, nil, fmt.Errorf("core: dictionary merge lost term %q", term)
				}
				remap = append(remap, id)
			}
			for _, bt := range ft.triples {
				mine = append(mine, rdf.Triple{S: remap[bt.S], P: remap[bt.P], O: remap[bt.O]})
			}
			ft.triples = nil
		}
		parts[rank] = mine
		ing.LocalTriples = int64(len(mine))
	}
	ing.PerRank = counts
	ing.SkippedLines = skipped

	triples := dataflow.FromPartitions(c, "input", parts, counts)
	placed := dataflow.PartitionBy(triples, "source/place", func(t rdf.Triple) int {
		return source.HashPartitioner{}.Place(t, workers)
	})
	for _, sp := range c.Stats().Spans() {
		if sp.Name == "source/place" {
			ing.ShuffleBytes = sp.ShuffleBytes
		}
	}
	// The placed triples came off the wire: one with an id the merged
	// dictionary never issued fails the job here rather than reaching
	// FCDetector, which sizes its columns by the largest id. A single-process
	// run's ids never leave the process and skip this.
	n := rdf.Value(dict.Len())
	checked := dataflow.Filter(placed, "source/check-ids", func(t rdf.Triple) bool {
		if max(t.S, t.P, t.O) < n {
			return true
		}
		c.Fail("source/check-ids", fmt.Errorf("%w: triple ids beyond a dictionary of %d terms", dataflow.ErrCorruptRecord, n))
		return false
	})
	return checked, dict, c.Err()
}

// loadFileTable streams one file into a file-local term table.
func loadFileTable(resolved *source.Resolved, i int) (*fileTable, error) {
	ft := &fileTable{index: i}
	byTerm := map[string]uint32{}
	var remap []uint32
	err := resolved.StreamFile(i, func(blk *rdf.TermBlock) error {
		remap = remap[:0]
		for _, term := range blk.Terms {
			id, ok := byTerm[term]
			if !ok {
				id = uint32(len(ft.terms))
				byTerm[term] = id
				ft.terms = append(ft.terms, term)
			}
			remap = append(remap, id)
		}
		for _, bt := range blk.Triples {
			ft.triples = append(ft.triples, rdf.BlockTriple{
				S: remap[bt.S], P: remap[bt.P], O: remap[bt.O],
			})
		}
		ft.skipped += int64(len(blk.Errs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	ft.ntrips = int64(len(ft.triples))
	return ft, nil
}

// append encodes the table (index, counts, and terms — not the triples,
// which never leave the loading rank) onto dst for the dictionary-merge
// gather.
func (ft *fileTable) append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(ft.index))
	dst = binary.AppendUvarint(dst, uint64(ft.ntrips))
	dst = binary.AppendUvarint(dst, uint64(ft.skipped))
	dst = binary.AppendUvarint(dst, uint64(len(ft.terms)))
	for _, term := range ft.terms {
		dst = binary.AppendUvarint(dst, uint64(len(term)))
		dst = append(dst, term...)
	}
	return dst
}

// decodeFileTables decodes one rank's gathered contribution. Bytes it cannot
// accept fail with dataflow.ErrCorruptRecord.
func decodeFileTables(src []byte) ([]*fileTable, error) {
	var out []*fileTable
	for len(src) > 0 {
		ft := &fileTable{}
		var vals [4]uint64
		for i := range vals {
			v, n := binary.Uvarint(src)
			if n <= 0 {
				return nil, fmt.Errorf("%w: truncated file table header", dataflow.ErrCorruptRecord)
			}
			vals[i] = v
			src = src[n:]
		}
		if vals[1] > math.MaxInt64 || vals[2] > math.MaxInt64 {
			return nil, fmt.Errorf("%w: file table count out of range", dataflow.ErrCorruptRecord)
		}
		ft.index = int(vals[0])
		ft.ntrips = int64(vals[1])
		ft.skipped = int64(vals[2])
		// Every term takes at least its length byte, so the bytes left bound
		// how many a well-formed table can still hold.
		ft.terms = make([]string, 0, min(vals[3], uint64(len(src))))
		for t := uint64(0); t < vals[3]; t++ {
			l, n := binary.Uvarint(src)
			if n <= 0 || uint64(len(src)-n) < l {
				return nil, fmt.Errorf("%w: truncated term", dataflow.ErrCorruptRecord)
			}
			ft.terms = append(ft.terms, string(src[n:n+int(l)]))
			src = src[n+int(l):]
		}
		out = append(out, ft)
	}
	return out, nil
}
