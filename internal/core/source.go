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

// This file roots the pipeline on the streaming source layer. Every ingest
// mode turns block-local ids into dataset ids the same way: by folding blocks
// into an rdf.Dataset with Dataset.AppendBlock. Three roles share one
// deterministic driver:
//
//   - Single-process: the files are folded in canonical document order into
//     one resident Dataset (source.Resolved.ReadDataset), which roots the
//     pipeline exactly as DiscoverContext does.
//
//   - Worker rank r of a cluster: r folds only the files assigned to it
//     (file i goes to rank i mod workers), each into a file-local Dataset
//     whose dictionary is the file's term table. The dictionary-merge
//     collective — one gather of every rank's per-file tables — lets every
//     process fold all tables into the global dictionary in document order,
//     so all ranks agree on it without any process having read the whole
//     input. Only the rank's own tables carry triples, so the fold leaves it
//     holding exactly its files' triples in global ids, and a placement
//     shuffle routes them to their hash partitions.
//
//   - Coordinator: contributes nothing, folds the gathered tables (it needs
//     the dictionary to canonicalize results), and passes all-nil partitions
//     to the dataflow root — it never materializes a single triple, which
//     IngestStats.LocalTriples asserts.
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

// ingestLocal reads every file into one resident Dataset and roots the
// pipeline on it as DiscoverContext does.
func ingestLocal(h *harness, resolved *source.Resolved, ing *IngestStats) (*dataflow.Dataset[rdf.Triple], *rdf.Dictionary, error) {
	ds, skipped, err := resolved.ReadDataset()
	if err != nil {
		return nil, nil, err
	}
	triples := dataflow.Parallelize(h.dfctx, "input", ds.Triples)
	for _, p := range triples.Partitions() {
		ing.PerRank = append(ing.PerRank, int64(len(p)))
	}
	ing.LocalTriples = int64(ds.Size())
	ing.Skipped, ing.SkippedLines = skipped, int64(len(skipped))
	return triples, ds.Dict, nil
}

// fileTable is one input file's ingest summary: its term table in
// first-occurrence order plus counts. On the loading rank it also carries
// the file's triples, encoded against the table.
type fileTable struct {
	index   int
	terms   []string
	triples []rdf.Triple // loading rank only; nil after decode
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
	// coordinator streams nothing and contributes an empty body. Local tables
	// keep their triples; decoding a gathered table would drop them.
	tables := make([]*fileTable, len(resolved.Files))
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
			tables[i] = ft
			body = ft.append(body)
			ing.LocalTriples += ft.ntrips
		}
	}

	// Dictionary-merge collective: every process receives every rank's
	// per-file tables and folds them into the global dictionary.
	blobs, ok := dataflow.Gather(c, "source/dict", body)
	if !ok {
		return nil, nil, c.Err()
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
	// The fold runs in document order. Other ranks' tables carry no
	// triples, so global.Triples ends up holding exactly this rank's
	// triples, already in global ids; everyone else roots empty partitions
	// with the gathered counts so span accounting still covers the whole
	// input.
	global := &rdf.Dataset{Dict: rdf.NewDictionary(), Triples: make([]rdf.Triple, 0, ing.LocalTriples)}
	counts := make([]int64, workers)
	var skipped int64
	var remap []rdf.Value
	for i, ft := range tables {
		if ft == nil {
			return nil, nil, fmt.Errorf("core: dictionary merge: no table for file %d", i)
		}
		remap = global.AppendBlock(&rdf.TermBlock{Terms: ft.terms, Triples: ft.triples}, remap)
		ft.triples = nil
		counts[i%workers] += ft.ntrips
		skipped += ft.skipped
	}
	parts := make([][]rdf.Triple, workers)
	if rank >= 0 {
		parts[rank] = global.Triples
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
	n := rdf.Value(global.Dict.Len())
	checked := dataflow.Filter(placed, "source/check-ids", func(t rdf.Triple) bool {
		if max(t.S, t.P, t.O) < n {
			return true
		}
		c.Fail("source/check-ids", fmt.Errorf("%w: triple ids beyond a dictionary of %d terms", dataflow.ErrCorruptRecord, n))
		return false
	})
	return checked, global.Dict, c.Err()
}

// loadFileTable folds one file into a file-local Dataset, whose dictionary
// is the file's term table.
func loadFileTable(resolved *source.Resolved, i int) (*fileTable, error) {
	ds := rdf.NewDataset()
	skipped, err := resolved.AppendFile(ds, i)
	if err != nil {
		return nil, err
	}
	terms := make([]string, ds.Dict.Len())
	for id := range terms {
		terms[id] = ds.Dict.Decode(rdf.Value(id))
	}
	return &fileTable{index: i, terms: terms, triples: ds.Triples, ntrips: int64(ds.Size()), skipped: int64(len(skipped))}, nil
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
