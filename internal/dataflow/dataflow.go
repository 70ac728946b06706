// Package dataflow is a small general-purpose dataflow engine that stands in
// for Apache Flink, the substrate RDFind was implemented on (App. C of the
// paper). It provides the operator repertoire RDFind's data flows require —
// Map, FlatMap, Filter, ReduceByKey with early aggregation (Flink's
// GroupCombine), GroupByKey, CoGroup, global reduction ("collect"), custom
// repartitioning, and broadcast variables — over horizontally partitioned
// in-memory datasets.
//
// A Context fixes the number of logical workers w. Every dataset is held as
// w partitions and every operator processes partitions in parallel, one
// goroutine per worker. Shuffles hash-partition records by key, with
// combiner-style pre-aggregation before data crosses partitions, mirroring
// the "early aggregation" the paper uses to cut network traffic (§5.2, §6.1).
//
// Narrow operators are lazy: they build a logical plan on the Dataset, and a
// chain of them executes as one fused stage when a wide operator or a sink
// forces materialization — the engine-level analogue of Flink's chained
// operators. See plan.go for the plan layer.
//
// Worker panics become StageErrors (see fault.go), and a context.Context
// attached with WithCancel aborts the pipeline between stages. Once a stage
// fails, every subsequent operator on the same Context short-circuits to an
// empty dataset, so a broken pipeline drains in O(1) per operator and the
// first error is reported by Context.Err. The one recovery path is the
// cluster's: a lost rank is respawned and replays its collectives
// (cluster.go).
//
// Because the reproduction runs on a single machine, the engine additionally
// keeps per-worker work accounting (records processed per worker per stage).
// From it, Stats derives the critical-path cost and the work-balance speedup
// used by the scale-out experiment (Fig. 9): on a real cluster the elapsed
// time of a stage is governed by its most loaded worker, which is exactly
// what the per-stage maximum models.
package dataflow

import (
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"time"
)

// Context carries the worker count, the hash seed that fixes the
// key-to-partition mapping for the lifetime of a job, the work accounting
// shared by all stages, and the cancellation and memory-budget settings.
//
// A Context is owned by a single job: the driver calls operators one after
// another, and the recorded stage order and the fail-fast error latch both
// assume that sequential ownership. Concurrent jobs must use separate
// Contexts (all engine state is internally synchronized, so even misuse
// cannot corrupt memory — but the interleaved stage accounting of two jobs
// would be meaningless).
type Context struct {
	workers   int
	seed      maphash.Seed
	stats     *Stats
	epoch     time.Time       // job start, the zero point of span offsets
	job       context.Context // nil: not cancellable
	memBudget int64           // bytes of keyed-operator state before spilling; 0: in-memory only
	spillDir  string          // directory for spill files; "": the OS temp dir

	// Distributed-mode state (cluster.go / worker.go / dist.go). At most one
	// of cluster and worker is set; both nil means single-process.
	cluster *Cluster    // set on the coordinator driver
	worker  *WorkerConn // set on a worker rank's driver replica
	rank    int         // this process's worker rank (-1: coordinator or single-process)
	distSeq int         // next collective barrier number (deterministic counting)

	mu  sync.Mutex
	err error // first terminal failure; latches the whole pipeline
}

// Option configures a Context beyond its worker count.
type Option func(*Context)

// WithCancel attaches a cancellation context: every stage checks it before
// it runs, so a cancelled job aborts promptly between operators with
// Context.Err wrapping the context's error.
func WithCancel(ctx context.Context) Option {
	return func(c *Context) { c.job = ctx }
}

// WithMemoryBudget bounds the keyed-operator state (aggregation maps and
// shuffle routing buffers) to roughly n bytes across all workers. Under the
// budget, ReduceByKey over pairs whose key and value types have registered
// codecs switches to the spill-to-disk execution of spill.go; GroupByKey,
// CoGroup and operators without a codec are unaffected. Non-positive
// budgets disable spilling. The product never sets a budget: this option and
// WithSpillDir stay only for benchmark/kernels.go's kernel.spill_reduce and
// go when benchmark/ stops calling them.
func WithMemoryBudget(n int64) Option {
	return func(c *Context) {
		if n > 0 {
			c.memBudget = n
		}
	}
}

// WithSpillDir places spill files in dir instead of the OS temp directory.
// The directory must exist; files are unlinked at creation, so nothing is
// left behind regardless of how the job ends. Kept, like WithMemoryBudget,
// only for benchmark/kernels.go.
func WithSpillDir(dir string) Option {
	return func(c *Context) { c.spillDir = dir }
}

// NewContext returns a context with the given number of logical workers.
// Worker counts below 1 are clamped to 1. Without options the context is not
// cancellable and keeps all keyed-operator state in memory.
func NewContext(workers int, opts ...Option) *Context {
	if workers < 1 {
		workers = 1
	}
	c := &Context{
		workers: workers,
		seed:    maphash.MakeSeed(),
		stats:   &Stats{},
		epoch:   time.Now(),
		rank:    -1,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Workers returns the number of logical workers.
func (c *Context) Workers() int { return c.workers }

// Columnar always reports true. Compile-only shim: benchmark/layers.go:120 is
// its sole reader, and the next [benchmark] PR removes it.
func (c *Context) Columnar() bool { return true }

// Stats returns the accumulated work accounting.
func (c *Context) Stats() *Stats { return c.stats }

// Err returns the first terminal stage failure (a *StageError, possibly
// wrapping a cancellation), or nil while the pipeline is healthy. Once
// non-nil, every subsequent operator short-circuits to an empty dataset.
func (c *Context) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail latches the first terminal failure. In distributed mode the first
// failure also propagates across the process boundary — the coordinator
// aborts the whole cluster, a worker notifies its coordinator — and the
// resulting echoes are absorbed by the latch on each side.
func (c *Context) fail(err error) {
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	c.mu.Unlock()
	if !first {
		return
	}
	if c.cluster != nil {
		c.cluster.Abort(err)
	}
	if c.worker != nil {
		c.worker.Fail(err)
	}
}

func (c *Context) failed() bool { return c.Err() != nil }

// Fail latches err as the job's terminal failure at the named stage, for a
// condition only the operator's caller can detect — an input outside what
// its record layout can hold, a decoded record that breaks its invariants —
// since operator closures have no error return. Every later operator drains
// to an empty dataset and Err returns a *StageError whose cause is err. It
// may be called from a closure running inside a stage.
func (c *Context) Fail(stage string, err error) {
	c.fail(&StageError{Stage: stage, Worker: c.rank, Attempt: 1, Cause: err})
}

// cancelErr returns the attached context's error, if any.
func (c *Context) cancelErr() error {
	if c.job == nil {
		return nil
	}
	return c.job.Err()
}

// Dataset is a horizontally partitioned collection: one slice of records per
// logical worker. A Dataset may be lazy — a pending narrow-operator chain
// instead of materialized partitions (see plan.go); every consumer that needs
// the records (wide operators, Collect, GlobalReduce, Len, Partitions,
// String) forces it exactly once. Like the
// Context it belongs to, a Dataset is driven by a single job goroutine.
type Dataset[T any] struct {
	ctx   *Context
	parts [][]T
	plan  *chain[T] // pending narrow-operator chain; nil once materialized
	// distinct is an upper bound on the number of distinct shuffle keys in
	// the dataset when one is known (0 = unknown). Operators that aggregate
	// by key (ReduceByKey, GroupByKey) set it on their outputs and
	// use it to pre-size downstream aggregation maps; record-subset operators
	// (Filter) propagate it, since a subset cannot add keys.
	distinct int64
	// glen memoizes the cluster-wide Len in distributed mode, where computing
	// it is a collective barrier: repeated Len calls must not consume extra
	// barrier sequence numbers.
	glen   int
	glenOK bool
}

// Context returns the context the dataset belongs to.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// Partitions exposes the raw partitions, mainly for tests and diagnostics,
// forcing any pending chain first. The slice always has exactly
// Context().Workers() entries.
func (d *Dataset[T]) Partitions() [][]T {
	d.force()
	return d.parts
}

// Len returns the total number of records across all partitions, forcing any
// pending chain first. In distributed mode it is a collective: every process
// receives the cluster-wide count (memoized, so repeated calls are free and
// barrier-aligned).
func (d *Dataset[T]) Len() int {
	d.force()
	if d.ctx.distributed() {
		if d.glenOK {
			return d.glen
		}
		if d.ctx.failed() {
			return 0
		}
		n, ok := distLen(d)
		if !ok {
			return 0
		}
		d.glen, d.glenOK = n, true
		return n
	}
	n := 0
	for _, p := range d.parts {
		n += len(p)
	}
	return n
}

// empty returns a dataset with w empty partitions, the value every operator
// yields once the pipeline has failed.
func empty[T any](c *Context) *Dataset[T] {
	return &Dataset[T]{ctx: c, parts: make([][]T, c.workers)}
}

// runStage executes f(worker) once for every worker this process runs,
// concurrently, with panic isolation. It reports whether the stage
// completed; on failure the error of the lowest-numbered failed worker is
// latched on the Context.
func (c *Context) runStage(name string, f func(worker int) error) bool {
	if c.failed() {
		return false
	}
	if err := c.cancelErr(); err != nil {
		c.fail(&StageError{Stage: name, Worker: -1, Attempt: 1,
			Cause: fmt.Errorf("cancelled: %w", err)})
		return false
	}
	// On the coordinator pending is empty: partitions execute on the worker
	// processes, and the stage is a no-op here beyond the cancel check.
	pending := c.pendingWorkers()
	errs := make([]error, len(pending))
	if len(pending) == 1 {
		// A single pending worker runs inline on the driver goroutine:
		// there is nothing to overlap with, so the fan-out buys nothing.
		errs[0] = runWorker(pending[0], f)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(pending))
		for i, w := range pending {
			go func() {
				defer wg.Done()
				errs[i] = runWorker(w, f)
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			c.fail(&StageError{Stage: name, Worker: pending[i], Attempt: 1, Cause: err})
			return false
		}
	}
	return true
}

// runWorker runs f(w), recovering a panic into a *PanicError.
func runWorker(w int, f func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoverWorker(r)
		}
	}()
	return f(w)
}

// hashPartition maps a key to a worker index.
func hashPartition[K comparable](c *Context, k K) int {
	if c.workers <= 1 {
		return 0
	}
	return int(maphash.Comparable(c.seed, k) % uint64(c.workers))
}

// Parallelize splits items across the context's workers in contiguous
// chunks, mimicking reading an unpartitioned input file split-wise. The
// remainder of len(items)/workers is spread over the first partitions, so
// partition sizes differ by at most one (ceil-chunking instead would leave
// trailing workers empty: n=5, w=4 gave 2/2/1/0 where 2/1/1/1 balances).
// Concatenating the partitions in worker order always reproduces items.
// Empty (or nil) input yields a dataset with w empty partitions.
func Parallelize[T any](c *Context, name string, items []T) *Dataset[T] {
	if c.failed() {
		return empty[T](c)
	}
	sp := c.begin(name)
	parts := make([][]T, c.workers)
	if len(items) == 0 {
		c.finish(sp, make([]int64, c.workers), 0)
		return &Dataset[T]{ctx: c, parts: parts}
	}
	base, rem := len(items)/c.workers, len(items)%c.workers
	counts := make([]int64, c.workers)
	lo := 0
	for w := 0; w < c.workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		parts[w] = items[lo:hi:hi]
		counts[w] = int64(hi - lo)
		lo = hi
	}
	c.finish(sp, counts, int64(len(items)))
	return &Dataset[T]{ctx: c, parts: parts}
}

// Map applies f to every record, preserving partitioning. It is lazy: the
// map is appended to the dataset's pending chain and runs when a consumer
// forces materialization.
func Map[T, U any](d *Dataset[T], name string, f func(T) U) *Dataset[U] {
	c := d.ctx
	if c.failed() {
		return empty[U](c)
	}
	return &Dataset[U]{ctx: c, plan: chainMap(chainOf(d), name, f)}
}

// FlatMap applies f to every record; f may emit any number of outputs. It is
// lazy, like Map.
func FlatMap[T, U any](d *Dataset[T], name string, f func(T, func(U))) *Dataset[U] {
	c := d.ctx
	if c.failed() {
		return empty[U](c)
	}
	return &Dataset[U]{ctx: c, plan: chainFlatMap(chainOf(d), name, f)}
}

// Filter keeps the records satisfying pred, preserving partitioning. As a
// record-subset operator it propagates the input's distinct-key bound — even
// across a pending chain. It is lazy, like Map.
func Filter[T any](d *Dataset[T], name string, pred func(T) bool) *Dataset[T] {
	c := d.ctx
	if c.failed() {
		return empty[T](c)
	}
	return &Dataset[T]{ctx: c, plan: chainFilter(chainOf(d), name, pred), distinct: d.distinct}
}

// MapPartitions applies f once per partition with the worker index, for
// operators that need partition-local state (e.g. building a partial Bloom
// filter per worker). Because f receives a whole partition slice, it is a
// fusion barrier on its input side — any pending upstream chain is forced
// first — but its own output is lazy and downstream narrow ops fuse onto it.
func MapPartitions[T, U any](d *Dataset[T], name string, f func(worker int, items []T, emit func(U))) *Dataset[U] {
	c := d.ctx
	d.force()
	if c.failed() {
		return empty[U](c)
	}
	return &Dataset[U]{ctx: c, plan: chainMapPartitions(d.parts, name, f)}
}

// Pair is a keyed record, the currency of shuffles.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// mapSizeHint sizes an aggregation map that will see n input records.
// distinct, when positive, is an upper bound on the number of distinct keys
// and wins whenever it is tighter than n. Without a bound, pre-sizing to n
// would balloon memory on heavily duplicated keys, so the speculative size is
// capped and the map grows normally past it.
func mapSizeHint(n int, distinct int64) int {
	if distinct > 0 && distinct < int64(n) {
		n = int(distinct)
	}
	const unknownKeyCap = 1024
	if distinct <= 0 && n > unknownKeyCap {
		return unknownKeyCap
	}
	return n
}

// shuffleParts redistributes records to the partition chosen by target (which
// must return a value in [0, workers)). It runs as two named phases
// (name/scatter and name/gather); the boolean is false when either failed.
// The int64 estimates the bytes that crossed partitions (zero on one worker).
//
// The scatter is allocation-lean: a classification pass records every
// record's target in an int32 scratch slice while counting per destination,
// then exact-capacity buckets are filled — no append regrowth, at the price
// of reading the input twice.
func shuffleParts[T any](c *Context, name string, parts [][]T, target func(T) int) ([][]T, int64, bool) {
	buckets := make([][][]T, c.workers)
	crossing := make([]int64, c.workers)
	if !c.runStage(name+"/scatter", func(w int) error {
		in := parts[w]
		tg := make([]int32, len(in))
		cnt := make([]int32, c.workers)
		for i, t := range in {
			p := target(t)
			tg[i] = int32(p)
			cnt[p]++
		}
		local := make([][]T, c.workers)
		for p, n := range cnt {
			local[p] = make([]T, 0, n)
		}
		for i, t := range in {
			p := tg[i]
			local[p] = append(local[p], t)
		}
		buckets[w] = local
		crossing[w] = int64(len(in) - len(local[w]))
		return nil
	}) {
		return nil, 0, false
	}
	out := make([][]T, c.workers)
	if !c.runStage(name+"/gather", func(t int) error {
		n := 0
		for w := 0; w < c.workers; w++ {
			n += len(buckets[w][t])
		}
		part := make([]T, 0, n)
		for w := 0; w < c.workers; w++ {
			part = append(part, buckets[w][t]...)
		}
		out[t] = part
		return nil
	}) {
		return nil, 0, false
	}
	return out, estimateCrossingBytes(parts, crossing), true
}

// shuffleByKey hash-partitions keyed records so that all records with equal
// keys land in the same output partition. In distributed mode the shuffle
// crosses processes through the coordinator, routed by the seeded hash of
// the record's key bytes instead of maphash (whose seed cannot leave the
// process).
func shuffleByKey[K comparable, V any](d *Dataset[Pair[K, V]], name string) ([][]Pair[K, V], int64, bool) {
	c := d.ctx
	if c.distributed() {
		return distShuffle(c, name, d.parts, func(_ Pair[K, V], enc []byte) int {
			kb, _, _ := nextBlob(enc)
			return c.distPartition(kb)
		})
	}
	return shuffleParts(c, name, d.parts, func(kv Pair[K, V]) int {
		return hashPartition(c, kv.Key)
	})
}

// ReduceByKey combines values of equal keys with the associative,
// commutative function combine. Values are pre-aggregated within each source
// partition before the shuffle (early aggregation) and reduced again at the
// target, exactly like Flink's GroupCombine + GroupReduce pairing the paper
// describes.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], name string, combine func(V, V) V) *Dataset[Pair[K, V]] {
	c := d.ctx
	d.force()
	// Spilling and the network shuffle are mutually exclusive (the spill
	// scatter assumes all routes are process-local); distributed runs stay in
	// memory per rank.
	if c.memBudget > 0 && !c.distributed() {
		if codec, ok := pairCodecFor[K, V](); ok {
			return reduceByKeySpill(d, name, combine, codec)
		}
	}
	sp := c.begin(name)
	counts := partLens(d.parts)
	// Combiner pass: partition-local aggregation.
	pre := make([][]Pair[K, V], c.workers)
	if !c.runStage(name+"/combine", func(w int) error {
		in := d.parts[w]
		agg := make(map[K]V, mapSizeHint(len(in), d.distinct))
		for _, kv := range in {
			if cur, ok := agg[kv.Key]; ok {
				agg[kv.Key] = combine(cur, kv.Val)
			} else {
				agg[kv.Key] = kv.Val
			}
		}
		local := make([]Pair[K, V], 0, len(agg))
		for k, v := range agg {
			local = append(local, Pair[K, V]{k, v})
		}
		pre[w] = local
		return nil
	}) {
		return empty[Pair[K, V]](c)
	}
	sp.combinerIn = sumCounts(counts)
	sp.combinerOut = totalLen(pre)
	shuffled, bytes, ok := shuffleByKey(&Dataset[Pair[K, V]]{ctx: c, parts: pre, distinct: d.distinct}, name)
	if !ok {
		return empty[Pair[K, V]](c)
	}
	sp.shuffleBytes = bytes
	// Final reduce at the target partitions. Post-combine, every shuffled
	// record carries a distinct (partition, key) pair, so the partition length
	// itself is a tight key bound.
	out := make([][]Pair[K, V], c.workers)
	if !c.runStage(name+"/reduce", func(w int) error {
		in := shuffled[w]
		bound := int64(len(in))
		if d.distinct > 0 && d.distinct < bound {
			bound = d.distinct
		}
		agg := make(map[K]V, bound)
		for _, kv := range in {
			if cur, ok := agg[kv.Key]; ok {
				agg[kv.Key] = combine(cur, kv.Val)
			} else {
				agg[kv.Key] = kv.Val
			}
		}
		local := make([]Pair[K, V], 0, len(agg))
		for k, v := range agg {
			local = append(local, Pair[K, V]{k, v})
		}
		out[w] = local
		return nil
	}) {
		return empty[Pair[K, V]](c)
	}
	c.finish(sp, counts, totalLen(out))
	// One output record per distinct key: the output's own length is an exact
	// distinct-key bound for downstream aggregations.
	return &Dataset[Pair[K, V]]{ctx: c, parts: out, distinct: totalLen(out)}
}

// GroupByKey gathers all values of equal keys into one record.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]], name string) *Dataset[Pair[K, []V]] {
	c := d.ctx
	d.force()
	sp := c.begin(name)
	counts := partLens(d.parts)
	shuffled, bytes, ok := shuffleByKey(d, name)
	if !ok {
		return empty[Pair[K, []V]](c)
	}
	sp.shuffleBytes = bytes
	out := make([][]Pair[K, []V], c.workers)
	if !c.runStage(name+"/group", func(w int) error {
		in := shuffled[w]
		agg := make(map[K][]V, mapSizeHint(len(in), d.distinct))
		for _, kv := range in {
			agg[kv.Key] = append(agg[kv.Key], kv.Val)
		}
		local := make([]Pair[K, []V], 0, len(agg))
		for k, vs := range agg {
			local = append(local, Pair[K, []V]{k, vs})
		}
		out[w] = local
		return nil
	}) {
		return empty[Pair[K, []V]](c)
	}
	c.finish(sp, counts, totalLen(out))
	// One output record per distinct key.
	return &Dataset[Pair[K, []V]]{ctx: c, parts: out, distinct: totalLen(out)}
}

// CoGrouped is the result record of a CoGroup: all left and right values
// sharing one key.
type CoGrouped[K comparable, V, W any] struct {
	Key   K
	Left  []V
	Right []W
}

// CoGroup joins two keyed datasets, emitting one record per key present on
// either side (a full-outer co-group, Flink's CoGroup operator).
func CoGroup[K comparable, V, W any](a *Dataset[Pair[K, V]], b *Dataset[Pair[K, W]], name string) *Dataset[CoGrouped[K, V, W]] {
	c := a.ctx
	if b.ctx != c {
		panic("dataflow: cogroup of datasets from different contexts")
	}
	a.force()
	b.force()
	sp := c.begin(name)
	sa, bytesA, okA := shuffleByKey(a, name+"/left")
	if !okA {
		return empty[CoGrouped[K, V, W]](c)
	}
	sb, bytesB, okB := shuffleByKey(b, name+"/right")
	if !okB {
		return empty[CoGrouped[K, V, W]](c)
	}
	sp.shuffleBytes = bytesA + bytesB
	out := make([][]CoGrouped[K, V, W], c.workers)
	counts := make([]int64, c.workers)
	if !c.runStage(name+"/join", func(w int) error {
		left := make(map[K][]V, mapSizeHint(len(sa[w]), a.distinct))
		for _, kv := range sa[w] {
			left[kv.Key] = append(left[kv.Key], kv.Val)
		}
		right := make(map[K][]W, mapSizeHint(len(sb[w]), b.distinct))
		for _, kv := range sb[w] {
			right[kv.Key] = append(right[kv.Key], kv.Val)
		}
		local := make([]CoGrouped[K, V, W], 0, len(left))
		for k, vs := range left {
			local = append(local, CoGrouped[K, V, W]{k, vs, right[k]})
		}
		for k, ws := range right {
			if _, seen := left[k]; !seen {
				local = append(local, CoGrouped[K, V, W]{Key: k, Right: ws})
			}
		}
		out[w] = local
		counts[w] = int64(len(sa[w]) + len(sb[w]))
		return nil
	}) {
		return empty[CoGrouped[K, V, W]](c)
	}
	c.finish(sp, counts, totalLen(out))
	return &Dataset[CoGrouped[K, V, W]]{ctx: c, parts: out}
}

// Union concatenates two datasets partition-wise without a shuffle. Both
// must belong to the same context.
func Union[T any](a, b *Dataset[T], name string) *Dataset[T] {
	c := a.ctx
	if b.ctx != c {
		panic("dataflow: union of datasets from different contexts")
	}
	a.force()
	b.force()
	sp := c.begin(name)
	out := make([][]T, c.workers)
	counts := make([]int64, c.workers)
	if !c.runStage(name, func(w int) error {
		part := make([]T, 0, len(a.parts[w])+len(b.parts[w]))
		part = append(part, a.parts[w]...)
		part = append(part, b.parts[w]...)
		out[w] = part
		counts[w] = int64(len(part))
		return nil
	}) {
		return empty[T](c)
	}
	c.finish(sp, counts, totalLen(out))
	// Key bounds add across a concatenation, but only when both are known.
	var hint int64
	if a.distinct > 0 && b.distinct > 0 {
		hint = a.distinct + b.distinct
	}
	return &Dataset[T]{ctx: c, parts: out, distinct: hint}
}

// PartitionBy redistributes records by an explicit partition function,
// Flink's Repartition. RDFind uses it to spread the work units of dominant
// capture groups round-robin across workers (§7.2).
func PartitionBy[T any](d *Dataset[T], name string, part func(T) int) *Dataset[T] {
	c := d.ctx
	d.force()
	wrap := func(t T) int {
		p := part(t) % c.workers
		if p < 0 {
			p += c.workers
		}
		return p
	}
	sp := c.begin(name)
	counts := partLens(d.parts)
	var (
		out   [][]T
		bytes int64
		ok    bool
	)
	if c.distributed() {
		// part must be a pure function of the record; the replicated drivers
		// all compute the same placement.
		out, bytes, ok = distShuffle(c, name, d.parts, func(t T, _ []byte) int { return wrap(t) })
	} else {
		out, bytes, ok = shuffleParts(c, name, d.parts, wrap)
	}
	if !ok {
		return empty[T](c)
	}
	sp.shuffleBytes = bytes
	c.finish(sp, counts, totalLen(out))
	// A repartition moves records without merging keys.
	return &Dataset[T]{ctx: c, parts: out, distinct: d.distinct}
}

// Collect gathers all records on the driver, Flink's collect/broadcast
// boundary. The returned slice concatenates partitions in worker order. On a
// failed pipeline it returns nil; check Context.Err.
func Collect[T any](d *Dataset[T]) []T {
	d.force()
	if d.ctx.failed() {
		return nil
	}
	if d.ctx.distributed() {
		// A gather collective: every process receives all records in (rank,
		// partition-order) — the same order the single-process concatenation
		// produces — so driver control flow built on Collect results stays
		// identical across the replicated drivers.
		all, _ := distGatherRecords(d.ctx, "collect", d.parts)
		return all
	}
	var all []T
	for _, p := range d.parts {
		all = append(all, p...)
	}
	return all
}

// GlobalReduce folds all records into one value, used to union per-worker
// partial Bloom filters (Fig. 5, step 4). f must be associative: each worker
// first folds its own partition (name/partial), then the partials fold in
// worker order (name/merge) — in a cluster after a gather, on every process.
// Records still combine in worker order, so f need not be commutative. The
// boolean is false when the dataset is empty or the pipeline has failed.
func GlobalReduce[T any](d *Dataset[T], name string, f func(T, T) T) (T, bool) {
	c := d.ctx
	d.force()
	var zero T
	if c.failed() {
		return zero, false
	}
	sp := c.begin(name)
	counts := partLens(d.parts)
	partials := make([][]T, c.workers) // per worker its partition's fold, or none
	if !c.runStage(name+"/partial", func(w int) error {
		var acc []T
		for _, t := range d.parts[w] {
			if acc == nil {
				acc = []T{t}
			} else {
				acc[0] = f(acc[0], t)
			}
		}
		partials[w] = acc
		return nil
	}) {
		return zero, false
	}
	var all []T
	if c.distributed() {
		// Decoded copies on every process keep an f that mutates its
		// accumulator (Bloom union) off a rank's own partial.
		var ok bool
		if all, ok = distGatherRecords(c, name+"/merge", partials); !ok {
			return zero, false
		}
	} else {
		all = slices.Concat(partials...)
	}
	acc, err := foldPartials(name+"/merge", f, all)
	if err != nil {
		c.fail(err)
		return zero, false
	}
	c.finish(sp, counts, int64(min(len(all), 1)))
	return acc, len(all) > 0
}

// foldPartials folds the partials in order as stage name, on the driver: a
// panic in f fails the job with a *StageError for that stage.
func foldPartials[T any](name string, f func(T, T) T, partials []T) (acc T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StageError{Stage: name, Worker: -1, Attempt: 1, Cause: recoverWorker(r)}
		}
	}()
	for i, p := range partials {
		if i == 0 {
			acc = p
		} else {
			acc = f(acc, p)
		}
	}
	return acc, nil
}

// String summarizes the dataset for diagnostics, forcing any pending chain
// (via Len) exactly once.
func (d *Dataset[T]) String() string {
	return fmt.Sprintf("Dataset(workers=%d, records=%d)", d.ctx.workers, d.Len())
}
