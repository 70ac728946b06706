// Distributed execution: the operator-side collectives. See cluster.go for
// the execution model (SPMD replicated drivers, sequence-numbered collective
// barriers, lineage recovery) and worker.go for the connection mechanics.
//
// Each helper here is one collective: it derives the barrier's sequence
// number by counting (every process counts identically because the drivers
// are replicas), encodes the local contribution with the record type's
// ValueCodec (wire.go), and decodes the release through decodeRecords. A
// release that does not decode fails the job with ErrCorruptRecord. The
// coordinator variant consumes the completed barrier's retained state
// instead of contributing.
package dataflow

import (
	"errors"
	"math"
	"reflect"
)

// WithCluster attaches a coordinator: this Context becomes the distributed
// driver. It executes no partitions itself — stages run on the worker
// processes — but runs the full driver control flow and consumes every
// collective's results, ending the run with the job's output. The cluster's
// worker count overrides the Context's.
func WithCluster(cl *Cluster) Option {
	return func(c *Context) {
		c.cluster = cl
		c.workers = cl.cfg.Workers
		c.rank = -1
		cl.attach(c)
	}
}

// WithWorkerConn attaches a worker connection: this Context becomes rank r's
// replica of the distributed driver, executing exactly partition r of every
// stage. The worker count comes from the coordinator's welcome.
func WithWorkerConn(w *WorkerConn) Option {
	return func(c *Context) {
		c.worker = w
		c.workers = w.workers
		c.rank = w.rank
	}
}

// distributed reports whether this Context takes part in a multi-process job.
func (c *Context) distributed() bool { return c.cluster != nil || c.worker != nil }

// nextSeq assigns the next collective barrier's sequence number. Every
// process calls it at the same program points, so the numbering agrees
// cluster-wide without communication.
func (c *Context) nextSeq() int {
	s := c.distSeq
	c.distSeq++
	return s
}

// doneCh is the driver's cancellation channel (nil: not cancellable).
func (c *Context) doneCh() <-chan struct{} {
	if c.job == nil {
		return nil
	}
	return c.job.Done()
}

// pendingWorkers lists the logical workers this process executes: all of
// them single-process, exactly one on a worker rank, none on the
// coordinator.
func (c *Context) pendingWorkers() []int {
	if c.cluster != nil {
		return nil
	}
	if c.worker != nil {
		return []int{c.rank}
	}
	all := make([]int, c.workers)
	for w := range all {
		all[w] = w
	}
	return all
}

// failDist latches a distributed failure, preserving an existing StageError
// classification (remote failures arrive pre-classified over the wire).
func failDist(c *Context, name string, worker int, err error) {
	var se *StageError
	if errors.As(err, &se) {
		c.fail(se)
		return
	}
	c.fail(&StageError{Stage: name, Worker: worker, Attempt: 1, Cause: err})
}

// coordAwait blocks the coordinator at one collective barrier.
func coordAwait(c *Context, seq int, kind byte, name string) (*collective, bool) {
	coll, err := c.cluster.await(c, seq, kind, name)
	if err != nil {
		failDist(c, name, -1, err)
		return nil, false
	}
	return coll, true
}

// codecFor looks up T's codec for a collective, failing the job with a
// *MissingCodecError when T has none.
func codecFor[T any](c *Context, name string) (ValueCodec[T], bool) {
	codec, ok := valueCodecFor[T]()
	if !ok {
		failDist(c, name, c.rank, &MissingCodecError{Type: reflect.TypeOf((*T)(nil)).Elem()})
	}
	return codec, ok
}

// decodeRecords appends the records of a blob list to dst in one pass. It is
// the exchange's one decode: of a shuffle's buckets and of a gather's
// contributions alike, and every error it returns wraps ErrCorruptRecord.
func decodeRecords[T any](dst []T, codec ValueCodec[T], src []byte) ([]T, error) {
	for len(src) > 0 {
		blob, rest, err := nextBlob(src)
		if err != nil {
			return dst, err
		}
		v, err := codec.DecodeValue(blob)
		if err != nil {
			return dst, err
		}
		dst, src = append(dst, v), rest
	}
	return dst, nil
}

// decodeLists decodes the blob lists of all ranks, in rank order.
func decodeLists[T any](codec ValueCodec[T], lists [][]byte) ([]T, error) {
	var out []T
	for _, list := range lists {
		var err error
		if out, err = decodeRecords(out, codec, list); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// distShuffle is the cross-process shuffle: rank r encodes each record of its
// partition once, into the bucket of the worker target picks from the record
// and its encoding, contributes the bucket list, and decodes the buckets
// every source sent it, in rank order. target must be a pure function of the
// record, so every process agrees on placements.
func distShuffle[T any](c *Context, name string, parts [][]T, target func(rec T, enc []byte) int) ([][]T, int64, bool) {
	if c.failed() {
		return nil, 0, false
	}
	codec, ok := codecFor[T](c, name)
	if !ok {
		return nil, 0, false
	}
	seq := c.nextSeq()
	if c.cluster != nil {
		coll, ok := coordAwait(c, seq, kindShuffle, name)
		if !ok {
			return nil, 0, false
		}
		return make([][]T, c.workers), coll.rawBytes, true
	}
	// Encoding and routing run operator code (the codec, a PartitionBy
	// partitioner), so they run as a stage: a panic fails this rank's job
	// with a StageError the coordinator receives, not the process.
	var body []byte
	if !c.runStage(name+"/scatter", func(w int) error {
		buckets := make([][]byte, c.workers)
		var enc []byte
		for _, rec := range parts[w] {
			enc = codec.AppendValue(enc[:0], rec)
			t := target(rec, enc)
			buckets[t] = appendBlob(buckets[t], enc)
		}
		for _, b := range buckets {
			body = appendBlob(body, b)
		}
		return nil
	}) {
		return nil, 0, false
	}
	out := make([][]T, c.workers)
	rel, err := c.worker.contribute(seq, kindShuffle, name, body, c.doneCh())
	if err == nil {
		var sources [][]byte
		if sources, err = splitBlobs(rel); err == nil {
			out[c.rank], err = decodeLists(codec, sources)
		}
	}
	if err != nil {
		failDist(c, name, c.rank, err)
		return nil, 0, false
	}
	return out, int64(len(body)), true
}

// distGather runs one gather barrier: the worker contributes body and every
// process receives all contributions in rank order.
func distGather(c *Context, name string, body []byte) ([][]byte, bool) {
	seq := c.nextSeq()
	if c.cluster != nil {
		coll, ok := coordAwait(c, seq, kindGather, name)
		if !ok {
			return nil, false
		}
		return coll.contribs, true
	}
	rel, err := c.worker.contribute(seq, kindGather, name, body, c.doneCh())
	if err != nil {
		failDist(c, name, c.rank, err)
		return nil, false
	}
	blobs, err := splitBlobs(rel)
	if err != nil {
		failDist(c, name, c.rank, err)
		return nil, false
	}
	return blobs, true
}

// distGatherRecords gathers the records of every rank's partition on every
// process, in (rank, partition order): the concatenation order of the
// single-process Collect.
func distGatherRecords[T any](c *Context, name string, parts [][]T) ([]T, bool) {
	codec, ok := codecFor[T](c, name)
	if !ok {
		return nil, false
	}
	var body []byte
	if c.worker != nil {
		var enc []byte
		for _, rec := range parts[c.rank] {
			enc = codec.AppendValue(enc[:0], rec)
			body = appendBlob(body, enc)
		}
	}
	blobs, ok := distGather(c, name, body)
	if !ok {
		return nil, false
	}
	all, err := decodeLists(codec, blobs)
	if err != nil {
		failDist(c, name, c.rank, err)
		return nil, false
	}
	return all, true
}

// distLen sums the per-rank partition lengths via a gather, so Len returns
// the cluster-wide record count on every process.
func distLen[T any](d *Dataset[T]) (int, bool) {
	c := d.ctx
	lens := make([][]int, c.workers)
	if c.worker != nil {
		lens[c.rank] = []int{len(d.parts[c.rank])}
	}
	all, ok := distGatherRecords(c, "len", lens)
	if !ok {
		return 0, false
	}
	n := 0
	for _, v := range all {
		if v < 0 || v > math.MaxInt-n {
			failDist(c, "len", c.rank, corrupt("partition length %d", v))
			return 0, false
		}
		n += v
	}
	return n, true
}
