// Distributed execution: the operator-side collectives. See cluster.go for
// the execution model (SPMD replicated drivers, sequence-numbered collective
// barriers, lineage recovery) and worker.go for the connection mechanics.
//
// Each helper here is one collective: it derives the barrier's sequence
// number by counting (every process counts identically because the drivers
// are replicas), encodes the local contribution with the registered codecs,
// and decodes the release. The coordinator variant consumes the completed
// barrier's retained state instead of contributing.
package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"
)

// WithCluster attaches a coordinator: this Context becomes the distributed
// driver. It executes no partitions itself — stages run on the worker
// processes — but runs the full driver control flow and consumes every
// collective's results, ending the run with the job's output. The cluster's
// worker count and partitioning seed override the Context's.
func WithCluster(cl *Cluster) Option {
	return func(c *Context) {
		c.cluster = cl
		c.workers = cl.cfg.Workers
		c.distSeed = cl.cfg.Seed
		c.rank = -1
		cl.attach(c)
	}
}

// WithWorkerConn attaches a worker connection: this Context becomes rank r's
// replica of the distributed driver, executing exactly partition r of every
// stage. Worker count, partitioning seed, and the injected stage-fault
// schedule all come from the coordinator's welcome.
func WithWorkerConn(w *WorkerConn) Option {
	return func(c *Context) {
		c.worker = w
		c.workers = w.workers
		c.rank = w.rank
		c.distSeed = w.seed
		if len(w.faults) > 0 {
			c.faults = NewFaultPlan(w.faults...)
		}
	}
}

// WithRetryJitter spreads the retry backoff of runStage by ±frac (clamped to
// [0, 1]): attempt n sleeps base·2ⁿ⁻¹ scaled by a uniform factor in
// [1-frac, 1+frac]. Jitter decorrelates retry storms when many workers fail
// together (the same reason the worker reconnect path always jitters).
func WithRetryJitter(frac float64) Option {
	return func(c *Context) {
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		c.jitter = frac
	}
}

// retryDelay computes the attempt'th backoff from the base, jittered.
func retryDelay(base time.Duration, attempt int, jitter float64) time.Duration {
	d := base << (attempt - 1)
	if jitter > 0 && d > 0 {
		d = time.Duration(float64(d) * (1 + jitter*(2*rand.Float64()-1)))
	}
	return d
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

// appendRecordList encodes records as a blob list using a ValueCodec.
func appendRecordList[T any](dst []byte, codec ValueCodec[T], items []T) []byte {
	var scratch []byte
	for _, t := range items {
		scratch = codec.AppendValue(scratch[:0], t)
		dst = appendBlob(dst, scratch)
	}
	return dst
}

// decodeRecordList decodes a blob list of records into dst.
func decodeRecordList[T any](dst []T, codec ValueCodec[T], src []byte) ([]T, error) {
	blobs, err := splitBlobs(src)
	if err != nil {
		return dst, err
	}
	for _, b := range blobs {
		dst = append(dst, codec.DecodeValue(b))
	}
	return dst, nil
}

// decodePairFrames decodes a run of spill frames into dst.
func decodePairFrames[K comparable, V any](dst []Pair[K, V], codec PairCodec[K, V], src []byte) ([]Pair[K, V], error) {
	for len(src) > 0 {
		kb, vb, n, err := decodeFrame(src)
		if err != nil {
			return dst, err
		}
		if n == 0 {
			break
		}
		dst = append(dst, Pair[K, V]{Key: codec.DecodeKey(kb), Val: codec.DecodeValue(vb)})
		src = src[n:]
	}
	return dst, nil
}

// distShufflePairs is the cross-process shuffle of keyed records: rank r
// encodes its partition into per-target buckets of spill frames (the wire
// format is exactly the spill layer's), contributes the bucket list, and
// receives every source's bucket for r. Keys route by the seeded byte hash
// over their codec key encoding — codecs must encode equal keys equally
// (the same injectivity the spill merge already requires).
func distShufflePairs[K comparable, V any](c *Context, name string, parts [][]Pair[K, V]) ([][]Pair[K, V], int64, bool) {
	if c.failed() {
		return nil, 0, false
	}
	codec, ok := pairCodecFor[K, V]()
	if !ok {
		failDist(c, name, c.rank, &MissingCodecError{Type: reflect.TypeOf(Pair[K, V]{})})
		return nil, 0, false
	}
	seq := c.nextSeq()
	if c.cluster != nil {
		coll, ok := coordAwait(c, seq, kindShuffle, name)
		if !ok {
			return nil, 0, false
		}
		return make([][]Pair[K, V], c.workers), coll.rawBytes, true
	}
	rank := c.rank
	buckets := make([][]byte, c.workers)
	var scratch, kb []byte
	for _, kv := range parts[rank] {
		kb = codec.AppendKey(kb[:0], kv.Key)
		t := c.distPartition(kb)
		buckets[t] = appendFrame(buckets[t], codec, kv.Key, kv.Val, &scratch)
	}
	var body []byte
	for _, b := range buckets {
		body = appendBlob(body, b)
	}
	rel, err := c.worker.contribute(seq, kindShuffle, name, body, c.doneCh())
	if err != nil {
		failDist(c, name, rank, err)
		return nil, 0, false
	}
	sources, err := splitBlobs(rel)
	if err != nil {
		failDist(c, name, rank, err)
		return nil, 0, false
	}
	out := make([][]Pair[K, V], c.workers)
	var local []Pair[K, V]
	for _, src := range sources {
		local, err = decodePairFrames(local, codec, src)
		if err != nil {
			failDist(c, name, rank, err)
			return nil, 0, false
		}
	}
	out[rank] = local
	return out, int64(len(body)), true
}

// distShuffleRecords is the cross-process repartition of unkeyed records
// (PartitionBy). target must be a pure function of the record so every
// process agrees on placements.
func distShuffleRecords[T any](c *Context, name string, parts [][]T, target func(T) int) ([][]T, int64, bool) {
	if c.failed() {
		return nil, 0, false
	}
	codec, ok := valueCodecFor[T]()
	if !ok {
		failDist(c, name, c.rank, &MissingCodecError{Type: reflect.TypeOf((*T)(nil)).Elem()})
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
	rank := c.rank
	buckets := make([][]byte, c.workers)
	var scratch []byte
	for _, rec := range parts[rank] {
		scratch = codec.AppendValue(scratch[:0], rec)
		t := target(rec)
		buckets[t] = appendBlob(buckets[t], scratch)
	}
	var body []byte
	for _, b := range buckets {
		body = appendBlob(body, b)
	}
	rel, err := c.worker.contribute(seq, kindShuffle, name, body, c.doneCh())
	if err != nil {
		failDist(c, name, rank, err)
		return nil, 0, false
	}
	sources, err := splitBlobs(rel)
	if err != nil {
		failDist(c, name, rank, err)
		return nil, 0, false
	}
	out := make([][]T, c.workers)
	var local []T
	for _, src := range sources {
		local, err = decodeRecordList(local, codec, src)
		if err != nil {
			failDist(c, name, rank, err)
			return nil, 0, false
		}
	}
	out[rank] = local
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

// distLen sums the per-rank partition lengths via a gather, so Len returns
// the cluster-wide record count on every process.
func distLen[T any](d *Dataset[T]) (int, bool) {
	c := d.ctx
	var body []byte
	if c.worker != nil {
		body = binary.AppendUvarint(nil, uint64(len(d.parts[c.rank])))
	}
	blobs, ok := distGather(c, "len", body)
	if !ok {
		return 0, false
	}
	n := 0
	for _, b := range blobs {
		v, _, ok := uvarintAt(b)
		if !ok {
			failDist(c, "len", c.rank, fmt.Errorf("corrupt length contribution"))
			return 0, false
		}
		n += v
	}
	return n, true
}

// distCollect gathers every record on every process in (rank, partition
// order) — the same concatenation order the single-process Collect uses.
func distCollect[T any](d *Dataset[T]) ([]T, bool) {
	c := d.ctx
	codec, ok := valueCodecFor[T]()
	if !ok {
		failDist(c, "collect", c.rank, &MissingCodecError{Type: reflect.TypeOf((*T)(nil)).Elem()})
		return nil, false
	}
	var body []byte
	if c.worker != nil {
		body = appendRecordList(nil, codec, d.parts[c.rank])
	}
	blobs, ok := distGather(c, "collect", body)
	if !ok {
		return nil, false
	}
	var all []T
	for _, b := range blobs {
		var err error
		all, err = decodeRecordList(all, codec, b)
		if err != nil {
			failDist(c, "collect", c.rank, err)
			return nil, false
		}
	}
	return all, true
}

// distMergePartials completes a GlobalReduce across processes: each rank
// contributes its local partial (with a presence flag for empty partitions),
// and every process folds the decoded partials in rank order. The linear
// fold equals the single-process merge tree because f is associative and
// both preserve worker order; decoding fresh copies on every process keeps
// an f that mutates its accumulator (Bloom union) safe.
func distMergePartials[T any](c *Context, name string, f func(T, T) T, partial T, have bool) (T, bool, bool) {
	var zero T
	codec, ok := valueCodecFor[T]()
	if !ok {
		failDist(c, name, c.rank, &MissingCodecError{Type: reflect.TypeOf((*T)(nil)).Elem()})
		return zero, false, false
	}
	var body []byte
	if c.worker != nil {
		if have {
			body = codec.AppendValue([]byte{1}, partial)
		} else {
			body = []byte{0}
		}
	}
	blobs, ok := distGather(c, name+"/merge", body)
	if !ok {
		return zero, false, false
	}
	var acc T
	got := false
	for _, b := range blobs {
		if len(b) == 0 || b[0] == 0 {
			continue
		}
		v := codec.DecodeValue(b[1:])
		if !got {
			acc, got = v, true
		} else {
			acc = f(acc, v)
		}
	}
	return acc, got, true
}
