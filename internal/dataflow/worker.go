// Multi-process distributed execution: the worker side.
//
// A WorkerConn is a rank's connection to its coordinator. The worker process
// runs the same deterministic driver program as the coordinator (see
// cluster.go); every collective barrier the driver reaches turns into one
// contribute→release round-trip here. The connection is self-healing: the
// read loop owns reconnection, re-dialing with jittered exponential backoff
// and re-sending the in-flight contribution, so a dropped connection costs a
// retry, not the job. Only an exhausted reconnect budget (the coordinator is
// gone) or an injected kill is terminal for the process.
package dataflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// WorkerConn is one worker process's connection to the coordinator,
// established with DialWorker and attached to the worker's driver Context
// with WithWorkerConn.
type WorkerConn struct {
	rank          int
	network, addr string
	workers       int
	jobSpec       []byte
	hbInterval    time.Duration
	hbDeadline    time.Duration
	faults        []Fault
	procFaults    []ProcFault
	rng           *rand.Rand

	mu      sync.Mutex
	wmu     sync.Mutex // serializes frame writes (heartbeats vs. contributions)
	conn    net.Conn
	reader  *bufio.Reader
	pending *pendingRelease // at most one in-flight contribution (the driver is sequential)
	spent   []bool          // per-ProcFault spent flags, merged from every welcome
	err     error           // terminal failure latch
	killed  bool
	closed  chan struct{}
	ponce   sync.Once // closes `closed` exactly once
	wg      sync.WaitGroup
}

type pendingRelease struct {
	seq     int
	payload []byte // full contribute payload, kept for re-send after reconnect
	ch      chan releaseResult
}

type releaseResult struct {
	status byte
	body   []byte
}

// DialWorker connects rank to the coordinator, performs the hello/welcome
// handshake, and starts the read and heartbeat loops.
func DialWorker(network, addr string, rank int) (*WorkerConn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("dataflow: worker %d dial: %w", rank, err)
	}
	w := &WorkerConn{
		rank:    rank,
		network: network,
		addr:    addr,
		closed:  make(chan struct{}),
		rng:     rand.New(rand.NewSource(int64(rank)*0x9e37 + time.Now().UnixNano())),
	}
	welcome, err := w.handshake(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	w.conn = conn
	w.workers = welcome.Workers
	w.jobSpec = welcome.JobSpec
	w.hbInterval = time.Duration(welcome.HeartbeatMS) * time.Millisecond
	w.hbDeadline = time.Duration(welcome.DeadlineMS) * time.Millisecond
	w.faults = welcome.Faults
	w.procFaults = welcome.ProcFaults
	w.spent = make([]bool, len(welcome.ProcFaults))
	w.mergeSpent(welcome.Spent)
	w.wg.Add(2)
	go w.readLoop()
	go w.heartbeatLoop()
	return w, nil
}

// handshake sends hello and reads the welcome on a fresh connection (no
// concurrent reader exists at this point).
func (w *WorkerConn) handshake(conn net.Conn) (welcomeMsg, error) {
	if err := sendMsg(conn, defaultWriteTimeout, msgHello, encodeJSON(helloMsg{Rank: w.rank})); err != nil {
		return welcomeMsg{}, fmt.Errorf("dataflow: worker %d hello: %w", w.rank, err)
	}
	conn.SetReadDeadline(time.Now().Add(defaultWriteTimeout))
	r := newWireReader(conn)
	typ, payload, err := readMsg(r)
	if err != nil || typ != msgWelcome {
		return welcomeMsg{}, fmt.Errorf("dataflow: worker %d awaiting welcome: %v", w.rank, err)
	}
	conn.SetReadDeadline(time.Time{})
	welcome, err := decodeJSON[welcomeMsg](payload)
	if err != nil {
		return welcomeMsg{}, fmt.Errorf("dataflow: worker %d decoding welcome: %w", w.rank, err)
	}
	w.reader = r // keep the handshake reader: it may have buffered past the welcome
	return welcome, nil
}

// Rank returns this process's worker rank; Workers the cluster width;
// JobSpec the coordinator's opaque job description.
func (w *WorkerConn) Rank() int       { return w.rank }
func (w *WorkerConn) Workers() int    { return w.workers }
func (w *WorkerConn) JobSpec() []byte { return w.jobSpec }

func (w *WorkerConn) mergeSpent(indexes []int) {
	for _, i := range indexes {
		if i >= 0 && i < len(w.spent) {
			w.spent[i] = true
		}
	}
}

// fatal latches a terminal failure and releases every waiter.
func (w *WorkerConn) fatal(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	p := w.pending
	w.pending = nil
	w.mu.Unlock()
	w.ponce.Do(func() { close(w.closed) })
	if p != nil {
		select {
		case p.ch <- releaseResult{status: releaseFailed, body: encodeWireError(err)}:
		default:
		}
	}
}

// Err returns the connection's terminal failure, if any.
func (w *WorkerConn) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// send writes one framed message on the current connection. Failures are
// returned but non-fatal: the read loop notices the dead connection and
// reconnects; pending contributions are re-sent then.
func (w *WorkerConn) send(typ byte, payload []byte) error {
	w.mu.Lock()
	conn := w.conn
	w.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("dataflow: worker %d: no connection", w.rank)
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	err := sendMsg(conn, defaultWriteTimeout, typ, payload)
	if err != nil {
		conn.Close() // unblock the read loop so it reconnects
	}
	return err
}

// readLoop owns the connection's read side and its recovery: on any read
// error it reconnects with jittered exponential backoff, re-handshakes, and
// re-sends the in-flight contribution.
func (w *WorkerConn) readLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.closed:
			return
		default:
		}
		w.mu.Lock()
		conn, r := w.conn, w.reader
		w.mu.Unlock()
		conn.SetReadDeadline(time.Now().Add(w.hbDeadline))
		typ, payload, err := readMsg(r)
		if err != nil {
			if !w.reconnect() {
				return
			}
			continue
		}
		switch typ {
		case msgHeartbeat:
			// Liveness only; the next read re-arms the deadline.
		case msgRelease:
			seq, status, body, err := decodeRelease(payload)
			if err != nil {
				continue
			}
			w.mu.Lock()
			p := w.pending
			if p != nil && p.seq == seq {
				w.pending = nil
			} else {
				p = nil // stale or duplicate release: drop
			}
			w.mu.Unlock()
			if p != nil {
				p.ch <- releaseResult{status: status, body: body}
			}
		case msgAbort:
			w.fatal(decodeWireError(payload))
			return
		}
	}
}

// reconnect re-establishes the coordinator connection, reporting success.
// Exhausting the budget latches ErrCoordinatorLost.
func (w *WorkerConn) reconnect() bool {
	for attempt := 1; attempt <= defaultMaxReconnects; attempt++ {
		select {
		case <-w.closed:
			return false
		default:
		}
		w.mu.Lock()
		jitter := 1 + 0.5*(2*w.rng.Float64()-1)
		w.mu.Unlock()
		d := time.Duration(float64(defaultReconnectBase<<(attempt-1)) * jitter)
		select {
		case <-time.After(d):
		case <-w.closed:
			return false
		}
		conn, err := net.Dial(w.network, w.addr)
		if err != nil {
			continue
		}
		welcome, err := w.handshakeReconnect(conn)
		if err != nil {
			conn.Close()
			continue
		}
		w.mu.Lock()
		if old := w.conn; old != nil {
			old.Close()
		}
		w.conn = conn
		w.mergeSpent(welcome.Spent)
		p := w.pending
		w.mu.Unlock()
		if p != nil {
			w.send(msgContribute, p.payload) // at-least-once; the coordinator dedups
		}
		return true
	}
	w.fatal(fmt.Errorf("dataflow: worker %d: %w after %d reconnect attempts",
		w.rank, ErrCoordinatorLost, defaultMaxReconnects))
	return false
}

// handshakeReconnect is handshake for the read loop's reconnect path: it
// installs the new reader under the lock since other goroutines are live.
func (w *WorkerConn) handshakeReconnect(conn net.Conn) (welcomeMsg, error) {
	if err := sendMsg(conn, defaultWriteTimeout, msgHello, encodeJSON(helloMsg{Rank: w.rank})); err != nil {
		return welcomeMsg{}, err
	}
	conn.SetReadDeadline(time.Now().Add(w.hbDeadline))
	r := newWireReader(conn)
	typ, payload, err := readMsg(r)
	if err != nil || typ != msgWelcome {
		return welcomeMsg{}, fmt.Errorf("awaiting welcome: %v", err)
	}
	welcome, err := decodeJSON[welcomeMsg](payload)
	if err != nil {
		return welcomeMsg{}, err
	}
	w.mu.Lock()
	w.reader = r
	w.mu.Unlock()
	return welcome, nil
}

// heartbeatLoop announces liveness to the coordinator.
func (w *WorkerConn) heartbeatLoop() {
	defer w.wg.Done()
	tick := time.NewTicker(w.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-w.closed:
			return
		case <-tick.C:
			w.send(msgHeartbeat, nil) // best-effort; the read loop handles dead conns
		}
	}
}

// contribute executes one collective barrier: fire any injected faults sited
// here, send the contribution, and block until the coordinator's release
// (or a terminal failure / cancellation). done is the driver's cancellation
// channel (nil when the job is not cancellable).
func (w *WorkerConn) contribute(seq int, kind byte, name string, body []byte, done <-chan struct{}) ([]byte, error) {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return nil, err
	}
	payload := encodeContribute(seq, kind, name, body)
	p := &pendingRelease{seq: seq, payload: payload, ch: make(chan releaseResult, 1)}
	w.pending = p
	w.mu.Unlock()

	duplicate, err := w.fireFaults(seq)
	if err != nil {
		return nil, err
	}
	w.send(msgContribute, payload) // errors recovered by reconnect re-send
	if duplicate {
		w.send(msgContribute, payload)
	}
	select {
	case res := <-p.ch:
		if res.status != releaseOK {
			return nil, decodeWireError(res.body)
		}
		return res.body, nil
	case <-w.closed:
		return nil, w.Err()
	case <-done:
		err := fmt.Errorf("cancelled while awaiting collective %q: %w", name, ErrRemoteFailure)
		w.fatal(err)
		return nil, err
	}
}

// fireFaults fires every unspent injected fault sited at this barrier for
// this rank, in schedule order. It reports whether the contribution should
// be duplicated, and returns ErrWorkerKilled for a kill (after terminating
// the connection so the coordinator observes the death).
func (w *WorkerConn) fireFaults(seq int) (duplicate bool, err error) {
	for i, pf := range w.procFaults {
		w.mu.Lock()
		hit := pf.Seq == seq && pf.Rank == w.rank && !w.spent[i]
		if hit {
			w.spent[i] = true
		}
		w.mu.Unlock()
		if !hit {
			continue
		}
		var idx [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(idx[:], uint64(i))
		w.send(msgFaultFired, idx[:n]) // best-effort notice; the coordinator also infers
		switch pf.Kind {
		case ProcKill:
			w.terminate()
			return false, fmt.Errorf("%w (rank %d at collective %d)", ErrWorkerKilled, w.rank, seq)
		case ProcDisconnect:
			w.mu.Lock()
			conn := w.conn
			w.mu.Unlock()
			if conn != nil {
				conn.Close() // the read loop reconnects and re-sends the pending payload
			}
		case ProcDelay:
			select {
			case <-time.After(pf.Delay):
			case <-w.closed:
				return false, w.Err()
			}
		case ProcDuplicate:
			duplicate = true
		}
	}
	return duplicate, nil
}

// terminate simulates process death in the in-process harness: the
// connection drops, loops stop, and every subsequent operation fails with
// ErrWorkerKilled. A real subprocess worker exits instead.
func (w *WorkerConn) terminate() {
	w.mu.Lock()
	w.killed = true
	if w.err == nil {
		w.err = ErrWorkerKilled
	}
	conn := w.conn
	w.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	w.ponce.Do(func() { close(w.closed) })
}

// Killed reports whether an injected ProcKill terminated this worker.
func (w *WorkerConn) Killed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.killed
}

// Fail propagates a locally detected terminal failure to the coordinator
// (which aborts the whole job). Killed workers stay silent — a dead process
// sends nothing.
func (w *WorkerConn) Fail(err error) {
	w.mu.Lock()
	killed := w.killed
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	if killed {
		return
	}
	w.send(msgFailJob, encodeWireError(err))
}

// Goodbye announces clean completion of the worker's driver replica, letting
// the coordinator shut down without waiting out timeouts.
func (w *WorkerConn) Goodbye() {
	w.send(msgGoodbye, nil)
}

// Close tears the connection down (harness cleanup; not a simulated death).
func (w *WorkerConn) Close() {
	w.ponce.Do(func() { close(w.closed) })
	w.mu.Lock()
	conn := w.conn
	w.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	w.wg.Wait()
}
