// Multi-process distributed execution: the worker side.
//
// A WorkerConn is a rank's connection to its coordinator. The worker process
// runs the same deterministic driver program as the coordinator (see
// cluster.go); every collective barrier the driver reaches turns into one
// contribute→release round-trip here. A worker has one connection for its
// whole life: any read error on it is terminal (ErrCoordinatorLost), and the
// process never re-dials. The coordinator declares the rank lost on the same
// broken connection and respawns it; the replacement recovers by lineage
// replay (cluster.go).
package dataflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// WorkerConn is one worker process's connection to the coordinator,
// established with DialWorker and attached to the worker's driver Context
// with WithWorkerConn.
type WorkerConn struct {
	rank       int
	workers    int
	jobSpec    []byte
	procFaults []ProcFault
	spent      []bool // per-ProcFault spent flags, touched only by the driver
	conn       net.Conn
	reader     *bufio.Reader

	mu      sync.Mutex
	wmu     sync.Mutex      // serializes frame writes (heartbeats vs. contributions)
	pending *pendingRelease // at most one in-flight contribution (the driver is sequential)
	err     error           // terminal failure latch
	killed  bool            // an injected kill or drop ended this worker
	closed  chan struct{}
	ponce   sync.Once // closes `closed` exactly once
	wg      sync.WaitGroup
}

type pendingRelease struct {
	seq int
	ch  chan releaseResult
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
	w := &WorkerConn{rank: rank, conn: conn, closed: make(chan struct{})}
	welcome, err := w.handshake()
	if err != nil {
		conn.Close()
		return nil, err
	}
	w.workers = welcome.Workers
	w.jobSpec = welcome.JobSpec
	w.procFaults = welcome.ProcFaults
	w.spent = make([]bool, len(welcome.ProcFaults))
	for _, i := range welcome.Spent {
		if i >= 0 && i < len(w.spent) {
			w.spent[i] = true
		}
	}
	w.wg.Add(2)
	go w.readLoop()
	go w.heartbeatLoop()
	return w, nil
}

// handshake sends hello and reads the welcome (no concurrent reader exists
// at this point).
func (w *WorkerConn) handshake() (welcomeMsg, error) {
	if err := sendMsg(w.conn, defaultWriteTimeout, msgHello, encodeJSON(helloMsg{Rank: w.rank})); err != nil {
		return welcomeMsg{}, fmt.Errorf("dataflow: worker %d hello: %w", w.rank, err)
	}
	w.conn.SetReadDeadline(time.Now().Add(defaultWriteTimeout))
	w.reader = newWireReader(w.conn) // kept: it may have buffered past the welcome
	typ, payload, err := readMsg(w.reader)
	if err != nil || typ != msgWelcome {
		return welcomeMsg{}, fmt.Errorf("dataflow: worker %d awaiting welcome: %v", w.rank, err)
	}
	welcome, err := decodeWelcome(payload, w.rank)
	if err != nil {
		return welcomeMsg{}, fmt.Errorf("dataflow: worker %d: %w", w.rank, err)
	}
	return welcome, nil
}

// Rank returns this process's worker rank; Workers the cluster width;
// JobSpec the coordinator's opaque job description.
func (w *WorkerConn) Rank() int       { return w.rank }
func (w *WorkerConn) Workers() int    { return w.workers }
func (w *WorkerConn) JobSpec() []byte { return w.jobSpec }

// fatal latches a terminal failure and releases every waiter: contribute
// returns the latched error once closed is closed.
func (w *WorkerConn) fatal(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.ponce.Do(func() { close(w.closed) })
}

// Err returns the connection's terminal failure, if any.
func (w *WorkerConn) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// send writes one framed message. A failed write closes the connection, so
// the read loop fails and latches the loss.
func (w *WorkerConn) send(typ byte, payload []byte) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if sendMsg(w.conn, defaultWriteTimeout, typ, payload) != nil {
		w.conn.Close()
	}
}

// readLoop owns the connection's read side. Any read error is terminal: the
// coordinator has declared this process lost and respawns the rank, so the
// process never re-dials.
func (w *WorkerConn) readLoop() {
	defer w.wg.Done()
	for {
		w.conn.SetReadDeadline(time.Now().Add(defaultHeartbeatDeadline))
		typ, payload, err := readMsg(w.reader)
		if err != nil {
			w.fatal(fmt.Errorf("dataflow: worker %d: %w: %v", w.rank, ErrCoordinatorLost, err))
			return
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

// heartbeatLoop announces liveness to the coordinator.
func (w *WorkerConn) heartbeatLoop() {
	defer w.wg.Done()
	tick := time.NewTicker(defaultHeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-w.closed:
			return
		case <-tick.C:
			w.send(msgHeartbeat, nil)
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
	p := &pendingRelease{seq: seq, ch: make(chan releaseResult, 1)}
	w.pending = p
	w.mu.Unlock()

	if err := w.fireFaults(seq); err != nil {
		return nil, err
	}
	w.send(msgContribute, encodeContribute(seq, kind, name, body))
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
// this rank, in schedule order. A kill terminates the connection and returns
// ErrWorkerKilled; a drop closes the connection, so the read loop latches
// ErrCoordinatorLost. Either way the coordinator observes a lost rank.
func (w *WorkerConn) fireFaults(seq int) error {
	for i, pf := range w.procFaults {
		if pf.Seq != seq || pf.Rank != w.rank || w.spent[i] {
			continue
		}
		w.spent[i] = true
		var idx [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(idx[:], uint64(i))
		w.send(msgFaultFired, idx[:n]) // best-effort notice; the coordinator also infers
		switch pf.Kind {
		case ProcKill:
			w.terminate()
			return fmt.Errorf("%w (rank %d at collective %d)", ErrWorkerKilled, w.rank, seq)
		case ProcDisconnect:
			w.mu.Lock()
			w.killed = true // the process ends silently, as a killed one does
			w.mu.Unlock()
			w.conn.Close()
		case ProcDelay:
			select {
			case <-time.After(pf.Delay):
			case <-w.closed:
				return w.Err()
			}
		}
	}
	return nil
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
	w.mu.Unlock()
	w.conn.Close()
	w.ponce.Do(func() { close(w.closed) })
}

// Killed reports whether an injected kill or drop ended this worker. Such a
// worker exits silently, as a dead process would.
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
	w.conn.Close()
	w.wg.Wait()
}
