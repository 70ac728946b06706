// Package metrics is a small, dependency-free observability toolkit for the
// reproduction: the Span model the dataflow engine records once per stage
// (see span.go), and a Registry of named counters for the few process-level
// quantities no span holds (cluster events, see cluster.go). The paper's
// evaluation (§8) is entirely about where time and work go — per-operator
// costs, scale-out speedups, load-balancing effects — and spans are how a run
// accounts for them: `rdfind -stats` and the experiment reports read them.
//
// All types are safe for concurrent use. Snapshots are plain structs with
// JSON tags, so callers can embed them into larger machine-readable reports.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry holds named counters. Lookups create the counter on first use, so
// call sites need no registration ceremony.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RegistrySnapshot is the serializable state of a Registry. encoding/json
// sorts map keys, so two snapshots of equal state marshal identically.
type RegistrySnapshot struct {
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Snapshot copies the registry state.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s RegistrySnapshot
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, c := range r.counters {
			s.Counters[k] = c.Value()
		}
	}
	return s
}
