// Fault model of the dataflow engine.
//
// Flink, the substrate RDFind ran on, restarts failed tasks from their last
// consistent inputs (the paper relies on this in §8 and App. C, and its
// evaluation explicitly reasons about runs that die of memory-grant failures
// — the hollow bars of Fig. 7). This engine has one recovery path for that:
// a lost cluster rank is respawned and replays the collectives the
// coordinator retained (cluster.go). Inside a process there is nothing to
// recover: a panic or error in any worker goroutine is isolated into a
// structured StageError instead of tearing down the process, the failure is
// latched on the Context, and every later operator drains to an empty
// dataset. Re-running deterministic operator code on the same input would
// fail the same way, so a stage runs each worker once.
package dataflow

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// StageError reports the failure of one stage execution: which stage, which
// worker, on which attempt, and the recovered cause. It wraps the cause, so
// errors.Is/As see through it (e.g. to a PanicError or context.Canceled).
type StageError struct {
	// Stage is the engine-level stage name (an operator name, possibly with
	// a phase suffix such as "/combine" or "/scatter").
	Stage string
	// Worker is the logical worker whose execution failed.
	Worker int
	// Attempt is 1 for a failure inside a process; for a lost cluster rank
	// it counts that rank's losses so far.
	Attempt int
	// Deterministic marks a cluster rank lost twice at the same collective
	// barrier: its replayed replacement died where the first generation
	// did, so the loss is a logic fault, not a recoverable condition.
	Deterministic bool
	// Cause is the recovered failure.
	Cause error
}

func (e *StageError) Error() string {
	if e.Deterministic {
		return fmt.Sprintf("dataflow: stage %q worker %d attempt %d: deterministic failure (identical on replay): %v",
			e.Stage, e.Worker, e.Attempt, e.Cause)
	}
	return fmt.Sprintf("dataflow: stage %q worker %d attempt %d: %v", e.Stage, e.Worker, e.Attempt, e.Cause)
}

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *StageError) Unwrap() error { return e.Cause }

// PanicError is a panic recovered from a worker goroutine, with the stack at
// the point of the panic. The stage fails at once: re-executing
// deterministic user code would panic again.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("worker panic: %v", e.Value) }

// transientError marks a failure that a fresh run may not repeat.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// transient marks err transient: a lost cluster rank that respawn could not
// recover (cluster.go), or such a failure carried over the wire (wire.go).
func transient(err error) error { return &transientError{err: err} }

// IsTransient reports whether err is marked transient anywhere in its chain:
// the job ended because a cluster rank was lost and respawn could not
// recover it, not because of a fault in the job's own code.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// recoverWorker captures a panic recovered from a worker goroutine, with its
// stack.
func recoverWorker(r any) error {
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// Process-level fault model for the distributed mode (cluster.go): a
// ProcFault perturbs a whole worker process or its coordinator connection at
// a chosen collective barrier.

// Sentinel errors classifying process-level failures into the StageError
// model. A worker loss is recovered by respawn; one that exhausts the respawn
// budget surfaces as a StageError whose transient cause wraps ErrProcessLoss.
var (
	// ErrProcessLoss marks a worker process declared dead by the coordinator
	// (broken connection, missed heartbeat deadline, or injected kill or drop).
	ErrProcessLoss = errors.New("worker process lost")
	// ErrWorkerKilled is the local error a worker's RunJob returns when an
	// injected ProcKill terminates it (in-process harness mode; a real
	// subprocess just exits).
	ErrWorkerKilled = errors.New("worker process killed by injected fault")
	// ErrCoordinatorLost is returned by a worker whose coordinator
	// connection broke; the worker does not re-dial.
	ErrCoordinatorLost = errors.New("coordinator unreachable")
	// ErrRemoteFailure wraps a terminal failure that originated on another
	// process and was propagated over the wire.
	ErrRemoteFailure = errors.New("remote failure")
)

// ProcFaultKind selects how an injected process-level fault manifests.
type ProcFaultKind uint8

const (
	// ProcKill terminates the worker process at the chosen collective. The
	// coordinator detects the loss, respawns the rank, and re-derives its
	// partitions by lineage replay.
	ProcKill ProcFaultKind = iota
	// ProcDisconnect drops the worker's coordinator connection at the chosen
	// collective. The worker cannot re-dial, so the coordinator recovers the
	// rank exactly as it does a killed one.
	ProcDisconnect
	// ProcDelay stalls the worker's contribution by Delay before sending.
	ProcDelay
)

func (k ProcFaultKind) String() string {
	switch k {
	case ProcKill:
		return "kill"
	case ProcDisconnect:
		return "disconnect"
	default:
		return "delay"
	}
}

// ProcFault schedules one process-level fault: when worker Rank reaches
// collective barrier Seq (0-based position in the deterministic collective
// program; see Cluster.CollectiveTrace), Kind fires before the contribution
// is sent. The struct is JSON-serializable — plans ship to workers inside the
// welcome message.
type ProcFault struct {
	// Seq is the collective sequence number the fault fires at.
	Seq int `json:"seq"`
	// Rank is the worker rank the fault fires on.
	Rank int `json:"rank"`
	// Kind selects the manifestation.
	Kind ProcFaultKind `json:"kind"`
	// Delay is the stall duration for ProcDelay (ignored otherwise).
	Delay time.Duration `json:"delay,omitempty"`
}

// losesRank reports whether the fault ends its worker process's connection,
// so that the coordinator loses and respawns the rank.
func (f ProcFault) losesRank() bool { return f.Kind == ProcKill || f.Kind == ProcDisconnect }

// CollectiveSite is one entry of the coordinator's collective trace: the
// barrier's position in program order, the stage name it served, and its
// kind. Tests derive deterministic ProcFault schedules from a fault-free
// run's trace.
type CollectiveSite struct {
	Seq  int
	Name string
	Kind byte
}
