package core

import (
	"reflect"
	"strings"

	"onefile/internal/obs"
	"onefile/internal/tm"
)

// This file attaches the observability layer (internal/obs) to an engine.
//
// The contract with the hot path: an engine with no sink attached pays ONE
// atomic pointer load and a predicted branch per transaction — nothing
// else. Every obs handle is nil-safe, so the sink struct can be partially
// populated; every recording call below either sits on a path that is
// already cold (aborts, helps, parks) or is gated on the sink
// pointer at the transaction boundary. Recording itself is wait-free
// (bounded atomics, no loops), so instrumentation does not change the
// engines' progress bounds — see DESIGN.md §11.

// EngineObs bundles an engine's observability sinks: latency histograms
// per path, the batch-size histogram, and the flight recorder. Fields may
// be nil (recording through them is a no-op); normally RegisterMetrics
// builds a fully populated one.
type EngineObs struct {
	// UpdateLat is the begin→commit latency of update transactions
	// (including a batch's — the batch entries additionally record below).
	UpdateLat *obs.Histogram
	// ReadLat is the begin→completion latency of Read transactions.
	ReadLat *obs.Histogram
	// SoloLat is the call→resolve latency of AsyncUpdate calls.
	SoloLat *obs.Histogram
	// BatchLat is the call→resolve latency of BatchUpdate operations.
	BatchLat *obs.Histogram
	// BatchSize is the operations-per-batch-transaction distribution.
	BatchSize *obs.Histogram
	// Rec is the flight recorder (commit/abort/help/park events).
	Rec *obs.Recorder
}

// SetObs attaches (or, with nil, detaches) an observability sink. Safe at
// any time; transactions already past their sink load keep the sink they
// saw.
func (e *Engine) SetObs(o *EngineObs) { e.obsv.Store(o) }

// Obs returns the attached sink, or nil.
func (e *Engine) Obs() *EngineObs { return e.obsv.Load() }

// obsEvent records a flight-recorder event if a sink is attached. Only
// called from cold paths.
func (e *Engine) obsEvent(kind obs.EventKind, slot int, arg uint64) {
	if o := e.obsv.Load(); o != nil {
		o.Rec.Record(kind, slot, arg)
	}
}

// recorderDepth is the per-engine flight-recorder ring size: deep enough
// to span several milliseconds of full-rate commits, small enough (128KiB)
// to keep per-engine.
const recorderDepth = 4096

// RegisterMetrics registers the engine's full observable surface in reg
// under the given prefix (e.g. "onefile_of_lf") and attaches the returned
// sink to the engine:
//
//   - every tm.Stats counter, by reflection — a field added to tm.Stats
//     appears in /metrics without further wiring (and the reflection test
//     in internal/tm keeps Stats.Sub honest for the same field);
//   - the contention-layer gauges (parked waiters, park count) and the
//     curTx sequence;
//   - the latency/batch histograms and the flight recorder of EngineObs.
//
// Returns nil (and attaches nothing) on a nil registry — the no-sink fast
// path. Call before serving traffic; re-registration under the same
// prefix panics (duplicate metric names).
func (e *Engine) RegisterMetrics(reg *obs.Registry, prefix string) *EngineObs {
	if reg == nil {
		return nil
	}
	st := reflect.TypeOf(tm.Stats{})
	for i := 0; i < st.NumField(); i++ {
		idx := i
		f := st.Field(i)
		reg.CounterFunc(prefix+"_"+snakeCase(f.Name)+"_total",
			"engine counter tm.Stats."+f.Name,
			func() float64 {
				return float64(reflect.ValueOf(e.Stats()).Field(idx).Uint())
			})
	}
	reg.CounterFunc(prefix+"_parks_total",
		"goroutines parked by slot admission",
		func() float64 { return float64(e.cm.parks.Load()) })
	reg.GaugeFunc(prefix+"_parked_waiters",
		"goroutines currently parked or entering the wait list",
		func() float64 { return float64(e.cm.waiters.Load()) })
	reg.GaugeFunc(prefix+"_curtx_seq",
		"current transaction sequence number",
		func() float64 { return float64(seqOf(e.curTx.Load())) })

	o := &EngineObs{
		UpdateLat: reg.Histogram(prefix+"_update_latency_ns",
			"begin-to-commit latency of direct update transactions", "ns"),
		ReadLat: reg.Histogram(prefix+"_read_latency_ns",
			"begin-to-completion latency of read-only transactions", "ns"),
		SoloLat: reg.Histogram(prefix+"_solo_latency_ns",
			"call-to-resolve latency of AsyncUpdate calls", "ns"),
		BatchLat: reg.Histogram(prefix+"_batch_op_latency_ns",
			"call-to-resolve latency of BatchUpdate operations", "ns"),
		BatchSize: reg.Histogram(prefix+"_batch_size_ops",
			"operations per batch transaction", "ops"),
		Rec: obs.NewRecorder(recorderDepth),
	}
	reg.AddRecorder(prefix, o.Rec)
	e.SetObs(o)
	return o
}

// MetricsPrefix derives a registry prefix from the engine name:
// "OF-LF-PTM" → "onefile_of_lf_ptm".
func MetricsPrefix(name string) string {
	return "onefile_" + strings.ToLower(strings.NewReplacer("-", "_", " ", "_").Replace(name))
}

// snakeCase converts a Go field name to snake_case, keeping acronym runs
// together: ReadCommits → read_commits, DCAS → dcas, AggregatedOp →
// aggregated_op.
func snakeCase(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			prevLower := i > 0 && s[i-1] >= 'a' && s[i-1] <= 'z'
			nextLower := i+1 < len(s) && s[i+1] >= 'a' && s[i+1] <= 'z'
			prevUpper := i > 0 && s[i-1] >= 'A' && s[i-1] <= 'Z'
			if prevLower || (prevUpper && nextLower) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}
