// Out-of-core execution for the keyed aggregation.
//
// When a Context carries a memory budget (WithMemoryBudget) and codecs are
// registered for the key and value types of the operator's records (wire.go),
// ReduceByKey switches to a spilling implementation that bounds the engine's
// resident state instead of holding the whole shuffle and aggregation in
// memory:
//
//   - The combine/scatter phase aggregates records into a bounded map and
//     encodes overflow into per-target chunk buffers. Full chunks are
//     appended to a per-worker temporary file; partial chunks stay in memory,
//     so a generous budget degenerates to an in-memory (if serialized)
//     shuffle with no disk I/O.
//   - The reduce phase streams each target's chunks in source-worker order
//     and re-aggregates under the same bound. Overflowing aggregation state
//     is flushed as a run sorted by encoded key bytes; runs are recombined
//     with an external k-way merge (multi-pass above mergeFanIn), which
//     restores exactly one record per key.
//
// A frame carries the key and value bytes of the pair's derived codec
// (pairCodec), each behind its uvarint length.
//
// The result is identical, as a multiset per partition, to the in-memory
// operator: records route through the same hashPartition and ReduceByKey's
// combine function is associative and commutative by contract. Only the
// (already arbitrary) map-iteration output order differs.
//
// Temporary files are created with os.CreateTemp and unlinked immediately,
// so closing the handle — or crashing — is the only cleanup needed. A worker
// retried after a transient fault starts by discarding its previous
// attempt's file and buffers, keeping the retained-partition retry contract.
package dataflow

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// mergeFanIn bounds how many runs one merge pass reads concurrently; more
// runs trigger intermediate passes that combine values run-group-wise.
const mergeFanIn = 64

// mapEntryOverhead approximates the per-entry bookkeeping of a Go map beyond
// the key and value payload, for budget accounting.
const mapEntryOverhead = 48

// spillParams derives the per-worker bounds from the Context budget: half
// the worker's share funds the aggregation map, the other half the routing
// chunks (one per target worker).
type spillParams struct {
	maxEntries int // aggregation-map entries before a run flush
	chunkCap   int // bytes per in-memory routing chunk before it goes to disk
}

func (c *Context) spillParams(perEntry int64) spillParams {
	if perEntry < 16 {
		perEntry = 16
	}
	wb := c.memBudget / int64(c.workers)
	if wb < 1 {
		wb = 1
	}
	me := wb / 2 / perEntry
	if me < 8 {
		me = 8
	}
	if me > 1<<22 {
		me = 1 << 22
	}
	cc := wb / 2 / int64(c.workers)
	if cc < 4096 {
		cc = 4096
	}
	if cc > 1<<20 {
		cc = 1 << 20
	}
	return spillParams{maxEntries: int(me), chunkCap: int(cc)}
}

// samplePairSize estimates the in-memory footprint of one aggregation-map
// entry from the dataset's first record.
func samplePairSize[K comparable, V any](parts [][]Pair[K, V]) int64 {
	for _, p := range parts {
		if len(p) > 0 {
			return metrics.EstimateSize(p[0]) + mapEntryOverhead
		}
	}
	return 0
}

// segment is one contiguous byte range of a spill file.
type segment struct{ off, n int64 }

// spillFile is an anonymous temporary file: created, then unlinked before
// use, so the kernel reclaims it when the handle closes no matter how the
// process ends. Writes append under a mutex; reads use ReadAt and are safe
// concurrently with each other (the engine's stage barrier separates them
// from writes).
type spillFile struct {
	mu  sync.Mutex
	f   *os.File
	off int64
}

func newSpillFile(dir string) (*spillFile, error) {
	f, err := os.CreateTemp(dir, "rdfind-spill-*")
	if err != nil {
		return nil, fmt.Errorf("dataflow: creating spill file: %w", err)
	}
	os.Remove(f.Name()) // unlink-on-create: Close is the only cleanup
	return &spillFile{f: f}, nil
}

func (s *spillFile) write(p []byte) (segment, error) {
	s.mu.Lock()
	off := s.off
	s.off += int64(len(p))
	s.mu.Unlock()
	if _, err := s.f.WriteAt(p, off); err != nil {
		return segment{}, fmt.Errorf("dataflow: writing spill segment: %w", err)
	}
	return segment{off: off, n: int64(len(p))}, nil
}

// readSegment reads one segment into buf (grown as needed).
func (s *spillFile) readSegment(seg segment, buf []byte) ([]byte, error) {
	if int64(cap(buf)) < seg.n {
		buf = make([]byte, seg.n)
	} else {
		buf = buf[:seg.n]
	}
	if _, err := s.f.ReadAt(buf, seg.off); err != nil {
		return nil, fmt.Errorf("dataflow: reading spill segment: %w", err)
	}
	return buf, nil
}

// frames returns a streaming reader over one segment.
func (s *spillFile) frames(seg segment) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(io.NewSectionReader(s.f, seg.off, seg.n), 64<<10)}
}

func (s *spillFile) close() {
	if s != nil && s.f != nil {
		s.f.Close()
	}
}

func closeSpillFiles(files []*spillFile) {
	for _, f := range files {
		f.close()
	}
}

// appendFrame encodes one pair as [uvarint keyLen, key, uvarint valLen, val],
// the key and value bytes those of the pair's derived codec. scratch is
// reused staging for the two encodings.
func appendFrame[K comparable, V any](dst []byte, codec pairCodec[K, V], k K, v V, scratch *[]byte) []byte {
	kb := codec.key.AppendValue((*scratch)[:0], k)
	dst = binary.AppendUvarint(dst, uint64(len(kb)))
	dst = append(dst, kb...)
	vb := codec.val.AppendValue(kb[:0], v) // kb is already copied out, reuse its array
	dst = binary.AppendUvarint(dst, uint64(len(vb)))
	dst = append(dst, vb...)
	*scratch = vb[:0]
	return dst
}

// decodeFrame splits the next frame off src, returning the key bytes, value
// bytes, and total frame length (0 at end of input).
func decodeFrame(src []byte) (kb, vb []byte, n int, err error) {
	if len(src) == 0 {
		return nil, nil, 0, nil
	}
	klen, kn := binary.Uvarint(src)
	if kn <= 0 || uint64(len(src)-kn) < klen {
		return nil, nil, 0, fmt.Errorf("dataflow: corrupt spill frame key")
	}
	kb = src[kn : kn+int(klen)]
	rest := src[kn+int(klen):]
	vlen, vn := binary.Uvarint(rest)
	if vn <= 0 || uint64(len(rest)-vn) < vlen {
		return nil, nil, 0, fmt.Errorf("dataflow: corrupt spill frame value")
	}
	vb = rest[vn : vn+int(vlen)]
	return kb, vb, kn + int(klen) + vn + int(vlen), nil
}

// frameReader streams frames from an io.Reader, reusing its key/value
// buffers between frames.
type frameReader struct {
	r        *bufio.Reader
	key, val []byte
}

// next advances to the next frame; false means clean end of stream.
func (fr *frameReader) next() (bool, error) {
	klen, err := binary.ReadUvarint(fr.r)
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("dataflow: reading spill frame: %w", err)
	}
	fr.key = growBuf(fr.key, int(klen))
	if _, err := io.ReadFull(fr.r, fr.key); err != nil {
		return false, fmt.Errorf("dataflow: reading spill key: %w", err)
	}
	vlen, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return false, fmt.Errorf("dataflow: reading spill frame: %w", err)
	}
	fr.val = growBuf(fr.val, int(vlen))
	if _, err := io.ReadFull(fr.r, fr.val); err != nil {
		return false, fmt.Errorf("dataflow: reading spill value: %w", err)
	}
	return true, nil
}

func growBuf(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// chunkList is the spill route from one source worker to one target worker:
// the on-disk segments flushed so far plus the in-memory tail that never
// overflowed. The reduce phase replays segments in order, then the tail, so
// the concatenation reproduces the source's emission order.
type chunkList struct {
	segs []segment
	tail []byte
}

// flushChunk moves a full chunk to the worker's spill file, opening the file
// lazily so small inputs never touch disk.
func flushChunk(cl *chunkList, file **spillFile, dir string, sp *activeSpan) error {
	if len(cl.tail) == 0 {
		return nil
	}
	if *file == nil {
		f, err := newSpillFile(dir)
		if err != nil {
			return err
		}
		*file = f
	}
	seg, err := (*file).write(cl.tail)
	if err != nil {
		return err
	}
	cl.segs = append(cl.segs, seg)
	cl.tail = cl.tail[:0]
	sp.spilledBytes.Add(seg.n)
	sp.spilledRuns.Add(1)
	return nil
}

// cancelCheckEvery bounds how many spill frames stream between cancellation
// checks: a cancelled job stops its replay and merge loops within a bounded
// amount of work, so the deferred file closes run promptly instead of after
// a full external merge.
const cancelCheckEvery = 1024

// cancelCounter polls the job's cancellation every cancelCheckEvery events.
type cancelCounter struct {
	c *Context
	n int
}

func (cc *cancelCounter) check() error {
	cc.n++
	if cc.n%cancelCheckEvery != 0 {
		return nil
	}
	if err := cc.c.cancelErr(); err != nil {
		return fmt.Errorf("dataflow: spill stream cancelled: %w", err)
	}
	return nil
}

// replayChunks streams every frame routed from all sources to target t, in
// source-worker order, into ingest, aborting early when the job is
// cancelled.
func replayChunks(c *Context, files []*spillFile, chunks [][]chunkList, t int, ingest func(kb, vb []byte) error) error {
	var segbuf []byte
	cancel := cancelCounter{c: c}
	consume := func(buf []byte) error {
		for len(buf) > 0 {
			kb, vb, n, err := decodeFrame(buf)
			if err != nil {
				return err
			}
			if n == 0 {
				return nil
			}
			if err := cancel.check(); err != nil {
				return err
			}
			if err := ingest(kb, vb); err != nil {
				return err
			}
			buf = buf[n:]
		}
		return nil
	}
	for w := range chunks {
		cl := &chunks[w][t]
		for _, seg := range cl.segs {
			var err error
			segbuf, err = files[w].readSegment(seg, segbuf)
			if err != nil {
				return err
			}
			if err := consume(segbuf); err != nil {
				return err
			}
		}
		if err := consume(cl.tail); err != nil {
			return err
		}
	}
	return nil
}

// runEntry locates one encoded pair inside a run arena: the key bytes (for
// sorting) and the full frame (for writing).
type runEntry struct {
	keyOff, keyEnd     int
	frameOff, frameEnd int
}

// sortedRunWriter accumulates encoded frames and flushes them as runs sorted
// by encoded key bytes.
type sortedRunWriter struct {
	arena   []byte
	entries []runEntry
	ordered []byte
	scratch []byte
}

// append encodes one pair into the arena.
func appendRunEntry[K comparable, V any](rw *sortedRunWriter, codec pairCodec[K, V], k K, v V) {
	frameOff := len(rw.arena)
	kb := codec.key.AppendValue(rw.scratch[:0], k)
	rw.arena = binary.AppendUvarint(rw.arena, uint64(len(kb)))
	keyOff := len(rw.arena)
	rw.arena = append(rw.arena, kb...)
	keyEnd := len(rw.arena)
	vb := codec.val.AppendValue(kb[:0], v)
	rw.arena = binary.AppendUvarint(rw.arena, uint64(len(vb)))
	rw.arena = append(rw.arena, vb...)
	rw.scratch = vb[:0]
	rw.entries = append(rw.entries, runEntry{keyOff: keyOff, keyEnd: keyEnd, frameOff: frameOff, frameEnd: len(rw.arena)})
}

// flush sorts the buffered entries by key bytes and writes them as one run.
func (rw *sortedRunWriter) flush(file **spillFile, dir string, sp *activeSpan) (segment, error) {
	sort.SliceStable(rw.entries, func(i, j int) bool {
		a, b := rw.entries[i], rw.entries[j]
		return bytes.Compare(rw.arena[a.keyOff:a.keyEnd], rw.arena[b.keyOff:b.keyEnd]) < 0
	})
	if cap(rw.ordered) < len(rw.arena) {
		rw.ordered = make([]byte, 0, len(rw.arena))
	}
	rw.ordered = rw.ordered[:0]
	for _, e := range rw.entries {
		rw.ordered = append(rw.ordered, rw.arena[e.frameOff:e.frameEnd]...)
	}
	if *file == nil {
		f, err := newSpillFile(dir)
		if err != nil {
			return segment{}, err
		}
		*file = f
	}
	seg, err := (*file).write(rw.ordered)
	if err != nil {
		return segment{}, err
	}
	rw.arena = rw.arena[:0]
	rw.entries = rw.entries[:0]
	sp.spilledBytes.Add(seg.n)
	sp.spilledRuns.Add(1)
	return seg, nil
}

// mergeCursor is one run's read head inside the k-way merge heap.
type mergeCursor struct {
	fr  *frameReader
	idx int // run index, the tie-break that keeps equal keys in run order
}

type mergeHeap []*mergeCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].fr.key, h[j].fr.key); c != 0 {
		return c < 0
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeCursor)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeRunGroup k-way merges a group of key-sorted runs from file, invoking
// emit once per frame in (key, run index) order. Equal keys arrive
// consecutively; last reports whether this frame is the group's final frame
// for its key. A cancelled job aborts the merge mid-stream, so the merge
// readers (section readers over the unlinked spill file) are dropped and the
// deferred file closes release the descriptors promptly.
func mergeRunGroup(c *Context, file *spillFile, runs []segment, base int, emit func(kb, vb []byte, last bool) error) error {
	cancel := cancelCounter{c: c}
	h := make(mergeHeap, 0, len(runs))
	for i, seg := range runs {
		cur := &mergeCursor{fr: file.frames(seg), idx: base + i}
		okNext, err := cur.fr.next()
		if err != nil {
			return err
		}
		if okNext {
			h = append(h, cur)
		}
	}
	heap.Init(&h)
	var kb, vb []byte
	for h.Len() > 0 {
		if err := cancel.check(); err != nil {
			return err
		}
		cur := h[0]
		// Copy the frame out before advancing: next() reuses the reader's
		// key/value buffers, and the heap comparison needs the new frame.
		kb = append(kb[:0], cur.fr.key...)
		vb = append(vb[:0], cur.fr.val...)
		okNext, err := cur.fr.next()
		if err != nil {
			return err
		}
		if okNext {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		last := h.Len() == 0 || !bytes.Equal(h[0].fr.key, kb)
		if err := emit(kb, vb, last); err != nil {
			return err
		}
	}
	return nil
}

// reduceByKeySpill is the budgeted ReduceByKey. Phase 1 (name/combine)
// pre-aggregates each source partition under the entry bound and routes the
// encoded overflow to per-target chunks; phase 2 (name/reduce) re-aggregates
// each target's stream, spilling sorted runs and external-merging them back
// to one record per key.
func reduceByKeySpill[K comparable, V any](d *Dataset[Pair[K, V]], name string, combine func(V, V) V, codec pairCodec[K, V]) *Dataset[Pair[K, V]] {
	c := d.ctx
	sp := c.begin(name)
	params := c.spillParams(samplePairSize(d.parts))

	files := make([]*spillFile, c.workers)   // per source worker, combine-phase chunks
	chunks := make([][]chunkList, c.workers) // [source][target]
	counts := make([]int64, c.workers)
	emitted := make([]int64, c.workers)  // combiner output records
	crossing := make([]int64, c.workers) // encoded bytes routed off-worker
	defer closeSpillFiles(files)
	if !c.runStage(name+"/combine", func(w int) error {
		// A retried worker discards the previous attempt's file and routes.
		files[w].close()
		files[w] = nil
		cl := make([]chunkList, c.workers)
		chunks[w] = cl
		emitted[w], crossing[w] = 0, 0
		in := d.parts[w]
		counts[w] = int64(len(in))
		hint := mapSizeHint(len(in), d.distinct)
		if hint > params.maxEntries {
			hint = params.maxEntries
		}
		agg := make(map[K]V, hint)
		var scratch []byte
		flush := func() error {
			for k, v := range agg {
				t := hashPartition(c, k)
				before := len(cl[t].tail)
				cl[t].tail = appendFrame(cl[t].tail, codec, k, v, &scratch)
				emitted[w]++
				if t != w {
					crossing[w] += int64(len(cl[t].tail) - before)
				}
				if len(cl[t].tail) >= params.chunkCap {
					if err := flushChunk(&cl[t], &files[w], c.spillDir, sp); err != nil {
						return err
					}
				}
			}
			clear(agg)
			return nil
		}
		for _, kv := range in {
			if cur, ok := agg[kv.Key]; ok {
				agg[kv.Key] = combine(cur, kv.Val)
				continue
			}
			if len(agg) >= params.maxEntries {
				if err := flush(); err != nil {
					return err
				}
			}
			agg[kv.Key] = kv.Val
		}
		return flush()
	}) {
		return empty[Pair[K, V]](c)
	}
	sp.combinerIn = sumCounts(counts)
	sp.combinerOut = sumCounts(emitted)
	sp.shuffleBytes = sumCounts(crossing)

	out := make([][]Pair[K, V], c.workers)
	runFiles := make([]*spillFile, c.workers) // per target worker, sorted runs
	defer closeSpillFiles(runFiles)
	if !c.runStage(name+"/reduce", func(t int) error {
		runFiles[t].close()
		runFiles[t] = nil
		hint := params.maxEntries
		if hint > 1024 {
			hint = 1024 // let the map grow; pre-sizing to the cap wastes the budget
		}
		agg := make(map[K]V, hint)
		rw := &sortedRunWriter{}
		var runs []segment
		flushRun := func() error {
			if len(agg) == 0 {
				return nil
			}
			for k, v := range agg {
				appendRunEntry(rw, codec, k, v)
			}
			clear(agg)
			seg, err := rw.flush(&runFiles[t], c.spillDir, sp)
			if err != nil {
				return err
			}
			runs = append(runs, seg)
			return nil
		}
		if err := replayChunks(c, files, chunks, t, func(kb, vb []byte) error {
			p, err := codec.decodeHalves(kb, vb)
			if err != nil {
				return err
			}
			if cur, ok := agg[p.Key]; ok {
				agg[p.Key] = combine(cur, p.Val)
				return nil
			}
			if len(agg) >= params.maxEntries {
				if err := flushRun(); err != nil {
					return err
				}
			}
			agg[p.Key] = p.Val
			return nil
		}); err != nil {
			return err
		}
		if len(runs) == 0 {
			// Everything fit: emit the map directly, like the in-memory path.
			local := out[t]
			if cap(local) < len(agg) {
				local = make([]Pair[K, V], 0, len(agg))
			} else {
				local = local[:0]
			}
			for k, v := range agg {
				local = append(local, Pair[K, V]{k, v})
			}
			out[t] = local
			return nil
		}
		if err := flushRun(); err != nil {
			return err
		}
		local := out[t][:0]
		local, err := mergeReduceRuns(c, runFiles[t], runs, codec, combine, sp, local)
		if err != nil {
			return err
		}
		out[t] = local
		return nil
	}) {
		return empty[Pair[K, V]](c)
	}
	c.finish(sp, counts, totalLen(out))
	// One output record per distinct key, as with the in-memory operator.
	return &Dataset[Pair[K, V]]{ctx: c, parts: out, distinct: totalLen(out)}
}

// mergeReduceRuns external-merges key-sorted runs into one Pair per key.
// Above mergeFanIn runs, intermediate passes merge fan-in-sized groups into
// new combined runs until one final pass can read everything.
func mergeReduceRuns[K comparable, V any](c *Context, file *spillFile, runs []segment, codec pairCodec[K, V], combine func(V, V) V, sp *activeSpan, dst []Pair[K, V]) ([]Pair[K, V], error) {
	for len(runs) > mergeFanIn {
		sp.mergePasses.Add(1)
		var next []segment
		for lo := 0; lo < len(runs); lo += mergeFanIn {
			hi := min(lo+mergeFanIn, len(runs))
			var buf, scratch []byte
			if err := foldRunGroup(c, file, runs[lo:hi], lo, codec, combine, func(p Pair[K, V]) {
				buf = appendFrame(buf, codec, p.Key, p.Val, &scratch)
			}); err != nil {
				return nil, err
			}
			seg, err := file.write(buf)
			if err != nil {
				return nil, err
			}
			sp.spilledBytes.Add(seg.n)
			sp.spilledRuns.Add(1)
			next = append(next, seg)
		}
		runs = next
	}
	sp.mergePasses.Add(1)
	err := foldRunGroup(c, file, runs, 0, codec, combine, func(p Pair[K, V]) { dst = append(dst, p) })
	return dst, err
}

// foldRunGroup merges a group of key-sorted runs (mergeRunGroup) and emits
// one pair per key, its values combined in run order.
func foldRunGroup[K comparable, V any](c *Context, file *spillFile, runs []segment, base int, codec pairCodec[K, V], combine func(V, V) V, emit func(Pair[K, V])) error {
	var acc V
	var accK []byte
	have := false
	return mergeRunGroup(c, file, runs, base, func(kb, vb []byte, last bool) error {
		v, err := codec.val.DecodeValue(vb)
		if err != nil {
			return err
		}
		if have && bytes.Equal(accK, kb) {
			acc = combine(acc, v)
		} else {
			accK, acc, have = append(accK[:0], kb...), v, true
		}
		if !last {
			return nil
		}
		have = false
		k, err := codec.key.DecodeValue(accK)
		if err == nil {
			emit(Pair[K, V]{Key: k, Val: acc})
		}
		return err
	})
}
