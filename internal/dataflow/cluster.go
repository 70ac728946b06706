// Multi-process distributed execution: the coordinator side.
//
// The engine distributes by SPMD replication rather than by shipping
// closures (Go cannot serialize functions): the coordinator and every worker
// process run the same deterministic driver program over the same input.
// Worker rank r executes only partition r of every stage; the coordinator
// executes no partitions at all and instead consumes the collective results
// that drive control flow (Collect, Len, GlobalReduce), so it ends the run
// holding the final output.
//
// All cross-process data moves through collectives executed in deterministic
// program order. Each collective has a sequence number that every process
// derives independently by counting (Context.nextSeq); the coordinator
// validates that name and kind agree across processes, which turns any
// divergence of the replicated drivers into an immediate typed error instead
// of silent corruption.
//
// Fault tolerance is lineage-based: the coordinator retains every completed
// collective's contributions. Because the driver is deterministic, a lost
// worker's entire partition state is re-derivable by replaying the program —
// a respawned replacement starts the driver from the beginning, and its
// contributions to already-complete collectives are answered instantly from
// the retained originals (the originals win, preserving byte identity), so
// the replay fast-forwards to the frontier where the rest of the job is
// waiting. This is the coarse-grained equivalent of Flink's
// restart-from-consistent-inputs recovery that RDFind's evaluation relies on.
// It is the only way a rank recovers: the rank is lost when its connection
// breaks, when its heartbeat deadline passes, or when it reports an injected
// kill or drop.
package dataflow

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Cluster constants. defaultHeartbeatInterval is the cadence of liveness
// traffic in both directions; defaultHeartbeatDeadline is how long a
// connection may stay silent before its process is declared lost;
// defaultMaxRespawns bounds how often one rank is respawned before its loss
// is terminal.
const (
	defaultHeartbeatInterval = 200 * time.Millisecond
	defaultHeartbeatDeadline = 2 * time.Second
	defaultWriteTimeout      = 10 * time.Second
	defaultMaxRespawns       = 2
	defaultDistSeed          = 0x9e3779b97f4a7c15 // job-wide key-partitioning hash seed
	goodbyeWait              = 5 * time.Second
)

// ClusterConfig parameterizes a coordinator.
type ClusterConfig struct {
	// Workers is the number of worker processes (= logical workers).
	Workers int
	// Network and Addr are passed to net.Listen ("tcp" or "unix").
	Network, Addr string
	// JobSpec is an opaque job description relayed to workers in the welcome
	// message (the CLI ships its flag set through it).
	JobSpec []byte
	// Spawn launches the worker process for a rank. It is called once per
	// rank at startup and again after every loss; it must return promptly
	// (launch asynchronously or from a goroutine-friendly exec).
	Spawn func(rank int) error
	// ProcFaults are process-level faults fired at collective barriers.
	ProcFaults []ProcFault
}

// coordConn wraps one accepted connection with write serialization, so
// release broadcasts, heartbeats, and abort notices from different
// goroutines never interleave frames.
type coordConn struct {
	mu   sync.Mutex
	conn net.Conn
}

func (cc *coordConn) send(timeout time.Duration, typ byte, payload []byte) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return sendMsg(cc.conn, timeout, typ, payload)
}

// rankState tracks one worker rank across process generations.
type rankState struct {
	gen         int // increments on every (re)connection of this rank
	lostGen     int // generation already declared lost; equal to gen ⇒ loss handled
	cc          *coordConn
	lastSeen    time.Time // last liveness evidence; initialized with a boot grace
	losses      int       // processes of this rank declared lost so far
	lastLossSeq int       // collective frontier at the previous loss (-1: none)
	goodbye     bool      // current generation completed the job cleanly
}

// collective is one barrier of the deterministic collective program. The
// contributions of completed collectives are retained for the lifetime of
// the job: they are the lineage from which respawned workers fast-forward.
type collective struct {
	seq      int
	kind     byte
	name     string
	contribs [][]byte // per-rank contribution bodies; nil = absent
	have     int
	rawBytes int64
	releases [][]byte // per-rank release bodies, computed once at completion
	done     chan struct{}
}

// Cluster is the coordinator of a distributed job. Create one with
// StartCluster, attach it to the driver Context with WithCluster, run the
// job, then Close.
type Cluster struct {
	cfg ClusterConfig
	ln  net.Listener

	mu          sync.Mutex
	ctx         *Context // attached by WithCluster
	ranks       []*rankState
	colls       map[int]*collective
	highSeq     int
	trace       []CollectiveSite
	spentFaults []bool
	err         error
	aborted     chan struct{}
	done        chan struct{}
	wg          sync.WaitGroup
}

// StartCluster opens the coordinator listener, spawns every rank via
// cfg.Spawn, and starts the accept, heartbeat, and loss-monitor loops.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.Workers = max(cfg.Workers, 1)
	ln, err := net.Listen(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("dataflow: coordinator listen: %w", err)
	}
	cl := &Cluster{
		cfg:         cfg,
		ln:          ln,
		ranks:       make([]*rankState, cfg.Workers),
		colls:       make(map[int]*collective),
		highSeq:     -1,
		spentFaults: make([]bool, len(cfg.ProcFaults)),
		aborted:     make(chan struct{}),
		done:        make(chan struct{}),
	}
	now := time.Now()
	for r := range cl.ranks {
		cl.ranks[r] = &rankState{lastSeen: now.Add(defaultHeartbeatDeadline), lastLossSeq: -1}
	}
	cl.wg.Add(2)
	go cl.acceptLoop()
	go cl.superviseLoop()
	if cfg.Spawn != nil {
		for r := 0; r < cfg.Workers; r++ {
			r := r
			cl.wg.Add(1)
			go func() {
				defer cl.wg.Done()
				if err := cfg.Spawn(r); err != nil {
					cl.Abort(&StageError{Stage: "cluster/spawn", Worker: r, Attempt: 1,
						Cause: fmt.Errorf("spawning rank %d: %w", r, err)})
				}
			}()
		}
	}
	return cl, nil
}

// Addr returns the coordinator's listen address for worker dials.
func (cl *Cluster) Addr() net.Addr { return cl.ln.Addr() }

// Workers returns the job's worker-process count.
func (cl *Cluster) Workers() int { return cl.cfg.Workers }

// Err returns the job's terminal failure, if any.
func (cl *Cluster) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// CollectiveTrace returns the collective barriers executed so far in program
// order. Tests derive deterministic ProcFault schedules from a fault-free
// run's trace.
func (cl *Cluster) CollectiveTrace() []CollectiveSite {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]CollectiveSite, len(cl.trace))
	copy(out, cl.trace)
	return out
}

// attach binds the driver Context (called by WithCluster).
func (cl *Cluster) attach(c *Context) {
	cl.mu.Lock()
	cl.ctx = c
	cl.mu.Unlock()
}

// count feeds a cluster counter into the attached job's metric registry.
// Callers may hold cl.mu (lock order: cl.mu → stats.mu).
func (cl *Cluster) countLocked(name string, n int64) {
	if cl.ctx != nil {
		cl.ctx.stats.Metrics().Counter(name).Add(n)
	}
}

// Abort latches a terminal failure, wakes every collective waiter, notifies
// all workers, and fails the attached driver context.
func (cl *Cluster) Abort(err error) {
	cl.mu.Lock()
	cl.abortLocked(err)
	cl.mu.Unlock()
}

func (cl *Cluster) abortLocked(err error) {
	if cl.err != nil {
		return
	}
	cl.err = err
	close(cl.aborted)
	ccs := make([]*coordConn, 0, len(cl.ranks))
	for _, rs := range cl.ranks {
		if rs.cc != nil {
			ccs = append(ccs, rs.cc)
		}
	}
	ctx := cl.ctx
	payload := encodeWireError(err)
	// The broadcast and the driver-side fail run outside cl.mu: Context.fail
	// calls back into Cluster.Abort (to cover driver-originated failures),
	// and conn writes must not stall the coordinator state machine.
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		for _, cc := range ccs {
			cc.send(defaultWriteTimeout, msgAbort, payload)
		}
		if ctx != nil {
			ctx.fail(err)
		}
	}()
}

// Close shuts the coordinator down. On a healthy job it first waits briefly
// for all workers' goodbyes, so final releases drain before connections drop.
func (cl *Cluster) Close() error {
	if cl.Err() == nil {
		deadline := time.Now().Add(goodbyeWait)
		for time.Now().Before(deadline) {
			cl.mu.Lock()
			all := true
			for _, rs := range cl.ranks {
				if !rs.goodbye {
					all = false
					break
				}
			}
			cl.mu.Unlock()
			if all {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cl.mu.Lock()
	select {
	case <-cl.done:
	default:
		close(cl.done)
	}
	for _, rs := range cl.ranks {
		if rs.cc != nil {
			rs.cc.conn.Close()
		}
	}
	cl.mu.Unlock()
	cl.ln.Close()
	cl.wg.Wait()
	return cl.Err()
}

func (cl *Cluster) closed() bool {
	select {
	case <-cl.done:
		return true
	default:
		return false
	}
}

// acceptLoop admits worker connections until the coordinator closes.
func (cl *Cluster) acceptLoop() {
	defer cl.wg.Done()
	for {
		conn, err := cl.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			cl.serve(conn)
		}()
	}
}

// serve handles one worker connection: hello/welcome handshake, then the
// message loop. A failed read — EOF, reset, or the heartbeat deadline — loses
// the rank at once if this connection is still its current generation.
func (cl *Cluster) serve(conn net.Conn) {
	defer conn.Close()
	r := newWireReader(conn)
	conn.SetReadDeadline(time.Now().Add(defaultHeartbeatDeadline))
	typ, payload, err := readMsg(r)
	if err != nil || typ != msgHello {
		return
	}
	hello, err := decodeJSON[helloMsg](payload)
	if err != nil || hello.Rank < 0 || hello.Rank >= cl.cfg.Workers {
		return
	}
	rank := hello.Rank
	cc := &coordConn{conn: conn}

	cl.mu.Lock()
	if cl.closed() {
		cl.mu.Unlock()
		return
	}
	rs := cl.ranks[rank]
	if old := rs.cc; old != nil && old != cc {
		old.conn.Close()
	}
	rs.gen++
	gen := rs.gen
	rs.cc = cc
	rs.lastSeen = time.Now()
	welcome := welcomeMsg{
		Rank:       rank,
		Workers:    cl.cfg.Workers,
		JobSpec:    cl.cfg.JobSpec,
		ProcFaults: cl.cfg.ProcFaults,
	}
	for i, spent := range cl.spentFaults {
		if spent {
			welcome.Spent = append(welcome.Spent, i)
		}
	}
	cl.mu.Unlock()

	if err := cc.send(defaultWriteTimeout, msgWelcome, encodeJSON(welcome)); err != nil {
		return
	}

	for {
		conn.SetReadDeadline(time.Now().Add(defaultHeartbeatDeadline))
		typ, payload, err := readMsg(r)
		if err != nil {
			cl.mu.Lock()
			if rs.gen == gen {
				cl.loseRankLocked(rank, fmt.Errorf("connection lost: %v", err), true)
			}
			cl.mu.Unlock()
			return
		}
		switch typ {
		case msgHeartbeat:
			cl.mu.Lock()
			if rs.gen == gen {
				rs.lastSeen = time.Now()
				cl.countLocked(metrics.ClusterHeartbeats, 1)
			}
			cl.mu.Unlock()
		case msgContribute:
			cl.handleContribute(rank, cc, payload)
		case msgFaultFired:
			cl.handleFaultFired(rank, payload)
		case msgFailJob:
			cl.Abort(decodeWireError(payload))
		case msgGoodbye:
			cl.mu.Lock()
			if rs.gen == gen {
				rs.goodbye = true
				rs.lastSeen = time.Now().Add(24 * time.Hour) // done; never declare lost
			}
			cl.mu.Unlock()
			return
		}
	}
}

// handleContribute implements the idempotent collective protocol. The first
// complete contribution per (seq, rank) wins; duplicates are absorbed; a
// contribution to an already-complete collective (a respawned worker
// replaying the program) is answered immediately from the retained lineage.
func (cl *Cluster) handleContribute(rank int, cc *coordConn, payload []byte) {
	seq, kind, name, body, err := decodeContribute(payload)
	if err != nil {
		cl.Abort(&StageError{Stage: "cluster", Worker: rank, Attempt: 1, Cause: err})
		return
	}
	cl.mu.Lock()
	if cl.err != nil {
		reply := encodeRelease(seq, releaseFailed, encodeWireError(cl.err))
		cl.mu.Unlock()
		cc.send(defaultWriteTimeout, msgRelease, reply)
		return
	}
	coll, err := cl.collLocked(seq, kind, name)
	if err != nil {
		cl.abortLocked(err)
		cl.mu.Unlock()
		return
	}
	if coll.contribs[rank] != nil {
		// Duplicate: a respawned worker replaying the program.
		cl.countLocked(metrics.ClusterDupContribs, 1)
		if coll.have < cl.cfg.Workers {
			cl.mu.Unlock()
			return // incomplete: the release will reach this rank on completion
		}
		cl.countLocked(metrics.ClusterReplayedReleases, 1)
		reply := encodeRelease(seq, releaseOK, coll.releases[rank])
		cl.mu.Unlock()
		cc.send(defaultWriteTimeout, msgRelease, reply)
		return
	}
	coll.contribs[rank] = body
	coll.have++
	coll.rawBytes += int64(len(body))
	cl.countLocked(metrics.ClusterShuffleBytes, int64(len(body)))
	if coll.have < cl.cfg.Workers {
		cl.mu.Unlock()
		return
	}
	// Complete: derive the per-rank releases, retain everything as lineage,
	// and broadcast to the current generation of every rank.
	if err := coll.completeLocked(cl.cfg.Workers); err != nil {
		cl.abortLocked(&StageError{Stage: name, Worker: rank, Attempt: 1, Cause: err})
		cl.mu.Unlock()
		return
	}
	cl.countLocked(metrics.ClusterCollectives, 1)
	close(coll.done)
	type dst struct {
		cc      *coordConn
		payload []byte
	}
	sends := make([]dst, 0, cl.cfg.Workers)
	for r, rs := range cl.ranks {
		if rs.cc != nil {
			sends = append(sends, dst{rs.cc, encodeRelease(seq, releaseOK, coll.releases[r])})
		}
	}
	cl.mu.Unlock()
	for _, s := range sends {
		s.cc.send(defaultWriteTimeout, msgRelease, s.payload)
	}
}

// collLocked finds or creates the collective for seq, validating that every
// process describes the same barrier — a mismatch means the replicated
// drivers diverged, which is terminal.
func (cl *Cluster) collLocked(seq int, kind byte, name string) (*collective, error) {
	if coll, ok := cl.colls[seq]; ok {
		if coll.kind != kind || coll.name != name {
			return nil, &StageError{Stage: name, Worker: -1, Attempt: 1, Deterministic: true,
				Cause: fmt.Errorf("collective %d diverged across processes: %s %q vs %s %q",
					seq, kindName(kind), name, kindName(coll.kind), coll.name)}
		}
		return coll, nil
	}
	coll := &collective{
		seq:      seq,
		kind:     kind,
		name:     name,
		contribs: make([][]byte, cl.cfg.Workers),
		done:     make(chan struct{}),
	}
	cl.colls[seq] = coll
	if seq > cl.highSeq {
		cl.highSeq = seq
	}
	cl.trace = append(cl.trace, CollectiveSite{Seq: seq, Name: name, Kind: kind})
	return coll, nil
}

// completeLocked derives the release bodies. A gather releases all
// contributions in rank order to everyone; a shuffle transposes the per-rank
// bucket lists so rank t receives bucket t of every source in rank order.
func (coll *collective) completeLocked(workers int) error {
	coll.releases = make([][]byte, workers)
	if coll.kind == kindGather {
		var rel []byte
		for _, body := range coll.contribs {
			rel = appendBlob(rel, body)
		}
		for r := range coll.releases {
			coll.releases[r] = rel
		}
		return nil
	}
	buckets := make([][][]byte, workers) // [source][target]
	for s, body := range coll.contribs {
		bs, err := splitBlobs(body)
		if err != nil || len(bs) != workers {
			return fmt.Errorf("corrupt shuffle contribution from rank %d: %d buckets, want %d", s, len(bs), workers)
		}
		buckets[s] = bs
	}
	for t := 0; t < workers; t++ {
		var rel []byte
		for s := 0; s < workers; s++ {
			rel = appendBlob(rel, buckets[s][t])
		}
		coll.releases[t] = rel
	}
	return nil
}

// handleFaultFired marks an injected process fault spent, and declares the
// rank lost at once for a kill or a drop, before the broken connection is read.
func (cl *Cluster) handleFaultFired(rank int, payload []byte) {
	idx, _, ok := uvarintAt(payload)
	if !ok || idx >= len(cl.cfg.ProcFaults) {
		return
	}
	cl.mu.Lock()
	cl.spentFaults[idx] = true
	pf := cl.cfg.ProcFaults[idx]
	if pf.losesRank() && pf.Rank == rank {
		// The notice names the fault, so no loss inference: inferring here
		// would spend the NEXT kill or drop scheduled for this rank too,
		// silently disarming a repeated-fault schedule.
		cl.loseRankLocked(rank, fmt.Errorf("injected %v", pf.Kind), false)
	}
	cl.mu.Unlock()
}

// superviseLoop sends coordinator→worker heartbeats and enforces the
// heartbeat deadline, declaring stale workers lost.
func (cl *Cluster) superviseLoop() {
	defer cl.wg.Done()
	tick := time.NewTicker(defaultHeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-cl.done:
			return
		case <-tick.C:
		}
		cl.mu.Lock()
		if cl.err != nil {
			cl.mu.Unlock()
			return
		}
		now := time.Now()
		ccs := make([]*coordConn, 0, len(cl.ranks))
		for r, rs := range cl.ranks {
			if rs.cc != nil {
				ccs = append(ccs, rs.cc)
			}
			if now.Sub(rs.lastSeen) > defaultHeartbeatDeadline {
				cl.loseRankLocked(r, fmt.Errorf("heartbeat deadline exceeded (last seen %v ago)", now.Sub(rs.lastSeen).Round(time.Millisecond)), true)
			}
		}
		cl.mu.Unlock()
		for _, cc := range ccs {
			cc.send(defaultWriteTimeout, msgHeartbeat, nil)
		}
	}
}

// frontierLocked is the smallest incomplete collective barrier — the point
// lineage replay must re-reach. With no incomplete barrier it is the next
// unseen one.
func (cl *Cluster) frontierLocked() (int, string) {
	frontier, name := cl.highSeq+1, "cluster"
	for seq, coll := range cl.colls {
		if coll.have < cl.cfg.Workers && seq < frontier {
			frontier, name = seq, coll.name
		}
	}
	return frontier, name
}

// loseRankLocked declares one worker process lost and decides between
// respawn-and-replay and terminal failure. A loss is recovered unless the
// rank died twice at the same barrier — then the loss is deterministic — or
// its respawn budget is exhausted; either way the terminal StageError names
// the frontier stage and its cause is a transient ErrProcessLoss. A
// recovered loss counts as one retry of the frontier stage's span.
// inferSpent is set by detection paths that carry no fault-fired notice (a
// broken connection, the heartbeat deadline): a killed or dropped worker may
// have lost its notice, so the first unspent kill or drop scheduled for this
// rank is assumed to be the one that fired.
func (cl *Cluster) loseRankLocked(rank int, cause error, inferSpent bool) {
	rs := cl.ranks[rank]
	if rs.lostGen == rs.gen || rs.goodbye || cl.err != nil || cl.closed() {
		return // this generation is already handled (or the job is over)
	}
	rs.lostGen = rs.gen
	if rs.cc != nil {
		rs.cc.conn.Close()
	}
	rs.losses++
	cl.countLocked(metrics.ClusterLosses, 1)
	// Loss inference: mark the first unspent kill or drop scheduled for this
	// rank spent, so the replayed replacement does not fire it again.
	if inferSpent {
		for i, pf := range cl.cfg.ProcFaults {
			if pf.losesRank() && pf.Rank == rank && !cl.spentFaults[i] {
				cl.spentFaults[i] = true
				break
			}
		}
	}
	frontierSeq, frontierName := cl.frontierLocked()
	deterministic := rs.lastLossSeq >= 0 && rs.lastLossSeq == frontierSeq
	rs.lastLossSeq = frontierSeq
	if deterministic || rs.losses > defaultMaxRespawns {
		cl.abortLocked(&StageError{Stage: frontierName, Worker: rank, Attempt: rs.losses,
			Deterministic: deterministic,
			Cause:         transient(fmt.Errorf("%w: rank %d (%v)", ErrProcessLoss, rank, cause))})
		return
	}
	if cl.ctx != nil {
		cl.ctx.stats.recordRetry(frontierName)
	}
	cl.countLocked(metrics.ClusterRespawns, 1)
	rs.lastSeen = time.Now().Add(defaultHeartbeatDeadline) // boot grace for the replacement
	if cl.cfg.Spawn == nil {
		cl.abortLocked(&StageError{Stage: frontierName, Worker: rank, Attempt: rs.losses,
			Cause: fmt.Errorf("%w: rank %d (%v); no respawn hook configured", ErrProcessLoss, rank, cause)})
		return
	}
	spawn := cl.cfg.Spawn
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		if err := spawn(rank); err != nil {
			cl.Abort(&StageError{Stage: frontierName, Worker: rank, Attempt: rs.losses,
				Cause: fmt.Errorf("respawning rank %d: %w", rank, err)})
		}
	}()
}

// await blocks the coordinator driver at one collective barrier until the
// workers complete it (or the job dies), and returns the completed barrier.
func (cl *Cluster) await(c *Context, seq int, kind byte, name string) (*collective, error) {
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		return nil, err
	}
	coll, err := cl.collLocked(seq, kind, name)
	if err != nil {
		cl.abortLocked(err)
		cl.mu.Unlock()
		return nil, err
	}
	cl.mu.Unlock()
	var cancel <-chan struct{}
	if c.job != nil {
		cancel = c.job.Done()
	}
	select {
	case <-coll.done:
		return coll, nil
	case <-cl.aborted:
		return nil, cl.Err()
	case <-cancel:
		err := &StageError{Stage: name, Worker: -1, Attempt: 1,
			Cause: fmt.Errorf("cancelled: %w", c.job.Err())}
		cl.Abort(err)
		return nil, err
	}
}

// errIsProcessLoss reports whether err traces to a lost worker process.
func errIsProcessLoss(err error) bool { return errors.Is(err, ErrProcessLoss) }
