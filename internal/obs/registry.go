// Package obs is the observability layer: a metrics registry of named
// counter/gauge/histogram handles, log-bucketed mergeable latency
// histograms, a per-engine flight recorder of recent transaction events,
// and a stdlib-only HTTP exposition layer (Prometheus text format and
// expvar-style JSON).
//
// Design constraints, in order:
//
//  1. Zero cost when not observing. Every recording handle (*Counter,
//     *Gauge, *Histogram, *Recorder) is nil-safe: code keeps a
//     possibly-nil pointer and records unconditionally, so the no-sink
//     fast path is one predictable branch — no interface dispatch, no
//     allocation, no atomic beyond what the caller already does. The
//     engine's hot path is gated on a single atomic pointer load (see
//     internal/core), benchmarked at ≤2% on the steady-state update path.
//
//  2. Wait-free recording. Counter.Add/Inc, Histogram.Record and
//     Recorder.Record are a bounded number of atomic operations with no
//     loops (beyond the hardware LOCK ADD), so instrumenting a wait-free
//     engine does not change its progress bound.
//
//  3. Mergeable snapshots. Histograms snapshot into plain values that
//     merge exactly by addition, so per-engine or per-shard distributions
//     aggregate without coordination.
//
// A Registry is only the naming and exposition directory; metric handles
// work standalone too (the bench latency sweep uses bare histograms).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// cell is one padded counter shard: its own cache line, so per-slot
// recording never false-shares with a neighbouring slot's.
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonic counter, sharded over padded per-slot cells.
// All methods are nil-safe.
type Counter struct {
	name  string
	help  string
	cells []cell
}

// Add adds delta to the counter from slot (shard) id. Callers pass their
// engine slot index (or 0); ids beyond the shard count wrap.
func (c *Counter) Add(slot int, delta uint64) {
	if c == nil {
		return
	}
	c.cells[uint(slot)%uint(len(c.cells))].n.Add(delta)
}

// Inc is Add(slot, 1).
func (c *Counter) Inc(slot int) { c.Add(slot, 1) }

// Value returns the counter total (the sum over shards).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.cells {
		t += c.cells[i].n.Load()
	}
	return t
}

// Gauge is a last-value metric. All methods are nil-safe.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last stored value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MetricKind distinguishes exposition types.
type MetricKind int

// Metric kinds.
const (
	KindCounter MetricKind = iota + 1
	KindGauge
	KindHistogram
)

// metric is one registry entry. Exactly one of the handle fields is set;
// fn-backed entries (counters/gauges sampled from existing state, e.g.
// tm.Stats fields) carry the sampling closure instead of a handle.
type metric struct {
	name string
	help string
	kind MetricKind
	ctr  *Counter
	gag  *Gauge
	hist *Histogram
	fn   func() float64
}

// value samples the metric's current scalar value (histograms excluded).
func (m *metric) value() float64 {
	switch {
	case m.fn != nil:
		return m.fn()
	case m.ctr != nil:
		return float64(m.ctr.Value())
	case m.gag != nil:
		return float64(m.gag.Value())
	}
	return 0
}

// Registry is a directory of named metrics and flight recorders. The zero
// value is NOT usable; create with NewRegistry. Registration is mutexed
// (cold path); recording goes through the returned handles and never
// touches the registry.
type Registry struct {
	mu        sync.Mutex
	metrics   map[string]*metric
	order     []string
	recorders map[string]*Recorder
	recOrder  []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics:   make(map[string]*metric),
		recorders: make(map[string]*Recorder),
	}
}

// register adds m under its name, panicking on duplicates (a registration
// bug, following expvar's convention).
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.metrics[m.name] = m
	r.order = append(r.order, m.name)
}

// Counter creates and registers a monotonic counter with the given number
// of padded shards (≤ 0 means 1). Returns nil on a nil registry, so
// callers can register unconditionally and record through the nil-safe
// handle.
func (r *Registry) Counter(name, help string, shards int) *Counter {
	if r == nil {
		return nil
	}
	if shards <= 0 {
		shards = 1
	}
	c := &Counter{name: name, help: help, cells: make([]cell, shards)}
	r.register(&metric{name: name, help: help, kind: KindCounter, ctr: c})
	return c
}

// Gauge creates and registers a last-value gauge. Nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{name: name, help: help}
	r.register(&metric{name: name, help: help, kind: KindGauge, gag: g})
	return g
}

// Histogram creates and registers a log-bucketed histogram. unit names
// the recorded value's unit ("ns"). Nil-safe.
func (r *Registry) Histogram(name, help, unit string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{name: name, unit: unit}
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// CounterFunc registers a counter sampled from fn — the unification hook
// for counters that already live elsewhere (tm.Stats fields, pmem device
// counters, batch counts). fn must be safe for concurrent calls
// and should be monotonic. Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: KindCounter, fn: fn})
}

// GaugeFunc registers a gauge sampled from fn. Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: KindGauge, fn: fn})
}

// AddRecorder registers a flight recorder for the dump endpoint. Nil-safe.
func (r *Registry) AddRecorder(name string, rec *Recorder) {
	if r == nil || rec == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.recorders[name]; dup {
		panic(fmt.Sprintf("obs: duplicate recorder %q", name))
	}
	r.recorders[name] = rec
	r.recOrder = append(r.recOrder, name)
}

// snapshotMetrics returns the registered metrics in registration order
// (copied out under the lock; sampling happens lock-free afterwards).
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.metrics[name])
	}
	return out
}

// snapshotRecorders returns the registered recorders sorted by name.
func (r *Registry) snapshotRecorders() (names []string, recs []*Recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names = append(names, r.recOrder...)
	sort.Strings(names)
	for _, n := range names {
		recs = append(recs, r.recorders[n])
	}
	return names, recs
}

// FindHistogram returns the registered histogram with the given name, or
// nil. Nil-safe. Test and report aid.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m.hist
	}
	return nil
}
