// Package bench is the benchmark harness that regenerates every figure and
// table of the paper's evaluation (§V): the SPS microbenchmarks (Figs. 2, 3
// and 8), the queue benchmarks (Figs. 4 and 12-left), the set sweeps
// (Figs. 5, 6, 9, 10, 11), the latency-percentile workload (Fig. 7), the
// process-kill resilience test (Fig. 12-right) and the persistence-
// instruction audit (Table I). The DESIGN.md experiment index maps each
// experiment to the entry points here; cmd/onefile-bench and the root
// bench_test.go drive them.
package bench

import (
	"fmt"

	"onefile/internal/core"
	"onefile/internal/crashcheck"
	"onefile/internal/pmem"
	"onefile/internal/tl2"
	"onefile/internal/tm"
)

// VolatileEngines are the STM engine names of the volatile evaluation
// (§V-A).
var VolatileEngines = []string{"OF-LF", "OF-WF", "TinySTM", "ESTM"}

// PersistentEngines are the PTM engine names of the NVM evaluation (§V-B).
var PersistentEngines = []string{"OF-LF-PTM", "OF-WF-PTM", "PMDK", "RomulusLog", "RomulusLR"}

// NewVolatile builds a volatile engine by name.
func NewVolatile(name string, opts ...tm.Option) (tm.Engine, error) {
	switch name {
	case "OF-LF":
		return core.NewLF(opts...), nil
	case "OF-WF":
		return core.NewWF(opts...), nil
	case "TinySTM":
		return tl2.New(opts...), nil
	case "ESTM":
		return tl2.NewElastic(opts...), nil
	}
	return nil, fmt.Errorf("bench: unknown volatile engine %q", name)
}

// NewPersistent builds a persistent engine by name on a fresh device.
func NewPersistent(name string, mode pmem.Mode, seed int64, opts ...tm.Option) (tm.Engine, pmem.Device, error) {
	def, err := crashcheck.EngineByName(name)
	if err != nil {
		return nil, nil, err
	}
	dev, err := pmem.New(def.DeviceConfig(mode, seed, opts...))
	if err != nil {
		return nil, nil, err
	}
	e, err := def.New(dev, false, opts...)
	if err != nil {
		return nil, nil, err
	}
	return e, dev, nil
}

// RecoverPersistent re-attaches an engine by name to an existing device, as
// a restarted process would after a crash.
func RecoverPersistent(name string, dev pmem.Device, opts ...tm.Option) (tm.Engine, error) {
	def, err := crashcheck.EngineByName(name)
	if err != nil {
		return nil, err
	}
	return def.New(dev, true, opts...)
}

// Point is one measured data point of a figure: a series name, the swept
// parameter and the measured value (operations per second unless the
// experiment states otherwise).
type Point struct {
	Series string
	X      float64
	Y      float64
}
