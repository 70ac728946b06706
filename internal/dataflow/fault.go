// Fault model of the dataflow engine.
//
// Flink, the substrate RDFind ran on, restarts failed tasks from their last
// consistent inputs (the paper relies on this in §8 and App. C, and its
// evaluation explicitly reasons about runs that die of memory-grant failures
// — the hollow bars of Fig. 7). This engine reproduces that robustness for
// in-process workers: a panic or error in any worker goroutine is recovered
// into a structured StageError instead of tearing down the process, and
// because datasets are immutable in-memory partitions, a failed stage can be
// deterministically re-executed from its retained inputs. Faults marked
// transient are retried with exponential backoff up to a bounded number of
// stage attempts; everything else fails the job at the first stage boundary.
//
// A FaultPlan injects deterministic faults — a panic or a transient error at
// stage S, worker W, occurrence K — so tests can prove that any recoverable
// fault schedule yields output identical to the fault-free run.
package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
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
	// Attempt is the 1-based stage attempt the failure occurred on.
	Attempt int
	// Deterministic marks a transient-labeled failure that reproduced
	// byte-identically when its worker was replayed on the retained input
	// partition: a logic fault, not a recoverable condition. The engine
	// stops retrying such failures after the first replay instead of
	// burning the remaining retry budget on identical re-executions.
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
// the point of the panic. Panics are not considered transient: re-executing
// deterministic user code would panic again, so the stage fails immediately.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("worker panic: %v", e.Value) }

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks an error as transient: a stage failing with it is eligible
// for re-execution from its retained input partitions. User operator code may
// panic with a Transient-wrapped error to request a retry.
func Transient(err error) error { return &transientError{err: err} }

// IsTransient reports whether err is marked transient anywhere in its chain.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// injectedPanic is the panic payload of a FaultPanic injection; the recovery
// path unwraps it to the transient error instead of treating it as a crash.
type injectedPanic struct{ err error }

// FaultKind selects how an injected fault manifests.
type FaultKind uint8

const (
	// FaultTransient makes the worker fail with a transient error before it
	// processes its partition.
	FaultTransient FaultKind = iota
	// FaultPanic makes the worker goroutine panic before it processes its
	// partition. The injected panic carries a transient marker, so recovery
	// plus retry apply (a stand-in for a killed task, not a code bug).
	FaultPanic
)

func (k FaultKind) String() string {
	if k == FaultPanic {
		return "panic"
	}
	return "transient"
}

// Site identifies one worker execution of one stage: the K-th time (1-based)
// stage Stage runs worker Worker, counting re-executions.
type Site struct {
	Stage      string
	Worker     int
	Occurrence int
}

// Fault schedules one injected fault at a site.
type Fault struct {
	Stage      string
	Worker     int
	Occurrence int
	Kind       FaultKind
}

func (f Fault) site() Site { return Site{Stage: f.Stage, Worker: f.Worker, Occurrence: f.Occurrence} }

// FaultPlan is a deterministic fault-injection schedule, attached to a
// Context with WithFaultPlan. Every worker execution is traced; when an
// execution matches a scheduled site, the planned fault fires before any user
// code runs, so re-execution from retained inputs observes no partial state.
// An empty plan injects nothing and doubles as an execution tracer.
type FaultPlan struct {
	mu      sync.Mutex
	planned map[Site]FaultKind
	counts  map[siteKey]int
	trace   []Site
	fired   []Fault
}

type siteKey struct {
	stage  string
	worker int
}

// NewFaultPlan builds a plan that fires the given faults. Faults with an
// Occurrence below 1 fire on the first execution of their site.
func NewFaultPlan(faults ...Fault) *FaultPlan {
	p := &FaultPlan{
		planned: make(map[Site]FaultKind, len(faults)),
		counts:  make(map[siteKey]int),
	}
	for _, f := range faults {
		if f.Occurrence < 1 {
			f.Occurrence = 1
		}
		p.planned[f.site()] = f.Kind
	}
	return p
}

// RandomFaultPlan samples n distinct sites from the given trace (as returned
// by Trace of a fault-free run) and schedules one fault at each, with kinds
// chosen by the seeded generator. The same seed, trace, and n always yield
// the same plan.
func RandomFaultPlan(seed int64, sites []Site, n int) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	if n > len(sites) {
		n = len(sites)
	}
	picked := rng.Perm(len(sites))[:n]
	faults := make([]Fault, 0, n)
	for _, i := range picked {
		s := sites[i]
		kind := FaultTransient
		if rng.Intn(2) == 1 {
			kind = FaultPanic
		}
		faults = append(faults, Fault{Stage: s.Stage, Worker: s.Worker, Occurrence: s.Occurrence, Kind: kind})
	}
	return NewFaultPlan(faults...)
}

// visit records one worker execution and fires a planned fault if the site
// matches: FaultTransient returns a transient error, FaultPanic panics with a
// recoverable payload. Called by the engine before any user code runs.
func (p *FaultPlan) visit(stage string, worker int) error {
	p.mu.Lock()
	key := siteKey{stage: stage, worker: worker}
	p.counts[key]++
	site := Site{Stage: stage, Worker: worker, Occurrence: p.counts[key]}
	p.trace = append(p.trace, site)
	kind, hit := p.planned[site]
	if hit {
		p.fired = append(p.fired, Fault{Stage: site.Stage, Worker: site.Worker, Occurrence: site.Occurrence, Kind: kind})
	}
	p.mu.Unlock()
	if !hit {
		return nil
	}
	err := Transient(fmt.Errorf("injected %s fault at stage %q worker %d occurrence %d",
		kind, site.Stage, site.Worker, site.Occurrence))
	if kind == FaultPanic {
		panic(injectedPanic{err: err})
	}
	return err
}

// Trace returns every worker execution seen so far, sorted by stage, worker,
// and occurrence so that schedules derived from it are deterministic even
// though workers run concurrently.
func (p *FaultPlan) Trace() []Site {
	p.mu.Lock()
	out := make([]Site, len(p.trace))
	copy(out, p.trace)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Occurrence < out[j].Occurrence
	})
	return out
}

// Fired returns the faults that actually fired, in firing order per site.
func (p *FaultPlan) Fired() []Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Fault, len(p.fired))
	copy(out, p.fired)
	return out
}

// recoverWorker classifies a recovered panic value: injected faults and
// Transient-marked panics keep their transient nature; everything else is a
// genuine crash, captured with its stack.
func recoverWorker(r any) error {
	if ip, ok := r.(injectedPanic); ok {
		return ip.err
	}
	if err, ok := r.(error); ok && IsTransient(err) {
		return err
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// Process-level fault model for the distributed mode (cluster.go). These
// extend the in-process FaultPlan: where a Fault perturbs one worker
// goroutine of one stage, a ProcFault perturbs a whole worker process or its
// coordinator connection at a chosen collective barrier.

// Sentinel errors classifying process-level failures into the StageError
// model. They compose with Transient: a recoverable worker loss surfaces (and
// is retried via respawn) as a Transient(ErrProcessLoss)-wrapped StageError.
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
// run's trace, mirroring the FaultPlan Trace → RandomFaultPlan workflow.
type CollectiveSite struct {
	Seq  int
	Name string
	Kind byte
}
