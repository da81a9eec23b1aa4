package crashcheck

import (
	"errors"
	"fmt"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/romulus"
	"onefile/internal/talloc"
	"onefile/internal/tm"
	"onefile/internal/undolog"
)

// EngineDef names one persistent engine and how to size its device and
// build (attach=false) or recover (attach=true) it.
type EngineDef struct {
	Name         string
	DeviceConfig func(mode pmem.Mode, seed int64, opts ...tm.Option) pmem.Config
	New          func(dev pmem.Device, attach bool, opts ...tm.Option) (tm.Engine, error)
}

// Engines returns every persistent engine in the repository, in a fixed
// order: the two OneFile PTMs, the undo-log (PMDK-style) PTM and the two
// Romulus variants.
func Engines() []EngineDef {
	return []EngineDef{
		{"OF-LF-PTM", core.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return core.NewPersistentLF(d, a, o...)
		}},
		{"OF-WF-PTM", core.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return core.NewPersistentWF(d, a, o...)
		}},
		{"PMDK", undolog.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return undolog.New(d, a, o...)
		}},
		{"RomulusLog", romulus.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return romulus.NewLog(d, a, o...)
		}},
		{"RomulusLR", romulus.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return romulus.NewLR(d, a, o...)
		}},
	}
}

// EngineByName returns the definition for name.
func EngineByName(name string) (EngineDef, error) {
	for _, d := range Engines() {
		if d.Name == name {
			return d, nil
		}
	}
	return EngineDef{}, fmt.Errorf("crashcheck: unknown persistent engine %q", name)
}

// engineOpts sizes the engines under test. Small on purpose: the sweep
// re-runs the workload once per persistence event, so recovery cost (which
// scales with the heap for Romulus's replica copy and OneFile's image scan)
// multiplies by the event count.
func engineOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(1 << 13),
		tm.WithMaxThreads(4),
		tm.WithMaxStores(1 << 10),
	}
}

// crashSignal is the panic value of the simulated power failure. Once the
// hook fires it keeps firing for every later persistence event, so a dead
// process cannot make anything more durable (e.g. a rollback running inside
// a deferred handler while the crash panic unwinds).
type crashSignal struct{ event int }

// DeviceFactory builds a fresh device for one sweep point. nil means the
// in-memory simulator (pmem.New). A file-backed factory must return a
// distinct file per call: every point formats from scratch.
type DeviceFactory func(cfg pmem.Config) (pmem.Device, error)

func (f DeviceFactory) newDevice(cfg pmem.Config) (pmem.Device, error) {
	if f == nil {
		return pmem.New(cfg)
	}
	return f(cfg)
}

// Config parameterises a matrix run.
type Config struct {
	// Engines to sweep; nil = all persistent engines.
	Engines []string
	// Txns is the number of mixed-operation transactions after container
	// setup.
	Txns int
	// Seed derives the workload program.
	Seed int64
	// Stride checks every Stride-th event index (1 = exhaustive).
	Stride int
	// Batch > 1 runs the combined-transaction sweep: workload transactions
	// are submitted in chunks of Batch through the engine's group-commit
	// combiner, and recovery must be all-or-nothing across each whole
	// chunk (batched.go). Only combining engines (the OneFile PTMs) are
	// eligible; with no explicit Engines they are the default set.
	Batch int
	// Strict enables the StrictMode sweep.
	Strict bool
	// RelaxedSeeds are device seeds for the RelaxedMode sweeps; empty
	// disables RelaxedMode.
	RelaxedSeeds []int64
	// Device builds the device for each sweep point; nil = simulator.
	Device DeviceFactory
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Violation is one failed crash point, with everything needed to replay it.
type Violation struct {
	Engine  string
	Mode    pmem.Mode
	DevSeed int64
	Seed    int64
	Txns    int
	Event   int
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s mode=%d devseed=%d wlseed=%d txns=%d event=%d: %s",
		v.Engine, v.Mode, v.DevSeed, v.Seed, v.Txns, v.Event, v.Detail)
}

// Result summarises a matrix run.
type Result struct {
	Points     int            // crash points exercised
	Events     map[string]int // canonical-workload event count per engine
	Violations []Violation
}

// Enumerate runs the canonical workload to completion on a fresh device and
// returns the number of persistence events it issues (the crash-point
// space). The count is a pure function of (engine, program): the workload is
// single-threaded and every engine schedules deterministically.
func Enumerate(def EngineDef, mode pmem.Mode, p *Program) (int, error) {
	return EnumerateOn(nil, def, mode, p)
}

// EnumerateOn is Enumerate with an explicit device factory (nil = simulator).
func EnumerateOn(fac DeviceFactory, def EngineDef, mode pmem.Mode, p *Program) (int, error) {
	dev, err := fac.newDevice(def.DeviceConfig(mode, 1, engineOpts()...))
	if err != nil {
		return 0, err
	}
	defer dev.Close()
	e, err := def.New(dev, false, engineOpts()...)
	if err != nil {
		return 0, err
	}
	n := 0
	dev.SetHook(func(pmem.Event) { n++ })
	p.run(e, func() {})
	dev.SetHook(nil)
	return n, nil
}

// RunPoint runs the canonical workload on a fresh device, crashes at
// persistence event number event (1-based), recovers, and verifies every
// invariant. It returns (completed, err): completed is true when the
// workload finished before reaching the event (the index is past the end of
// the trace), err is non-nil on an invariant violation.
func RunPoint(def EngineDef, mode pmem.Mode, devSeed int64, p *Program, event int) (completed bool, err error) {
	return RunPointOn(nil, def, mode, devSeed, p, event)
}

// RunPointOn is RunPoint with an explicit device factory (nil = simulator).
func RunPointOn(fac DeviceFactory, def EngineDef, mode pmem.Mode, devSeed int64, p *Program, event int) (completed bool, err error) {
	dev, err := fac.newDevice(def.DeviceConfig(mode, devSeed, engineOpts()...))
	if err != nil {
		return false, err
	}
	defer dev.Close()
	e, err := def.New(dev, false, engineOpts()...)
	if err != nil {
		return false, err
	}

	n := 0
	dev.SetHook(func(pmem.Event) {
		n++
		if n >= event {
			panic(crashSignal{event: event})
		}
	})
	acked := 0
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSignal); ok {
					crashed = true
					return
				}
				panic(r)
			}
		}()
		p.run(e, func() { acked++ })
	}()
	dev.SetHook(nil)
	if !crashed {
		return true, nil
	}

	// The power failure: lose everything that was not durable.
	dev.Crash()

	return false, RecoverAndVerify(def, dev, p, acked)
}

// RecoverAndVerify re-attaches def's engine to dev (which must hold a
// post-crash image) and checks every recovery invariant against the oracle:
// recovery succeeds, the allocator audits clean, the logical state is
// exactly StateAfter(acked) or StateAfter(acked+1), and the recovered engine
// still commits. Shared by the enumerated sweep, the torn-msync tests and
// the whole-process kill harness.
func RecoverAndVerify(def EngineDef, dev pmem.Device, p *Program, acked int) error {
	// Invariant 1: recovery must succeed (magic intact, no corruption).
	r, err := def.New(dev, true, engineOpts()...)
	if err != nil {
		return fmt.Errorf("recovery failed after %d acked txns: %w", acked, err)
	}

	// Invariant 2: the heap must tile into valid allocator blocks.
	auditOK := false
	r.Read(func(tx tm.Tx) uint64 {
		db, ok := r.(interface{ DynBase() tm.Ptr })
		if !ok {
			return 0
		}
		_, _, auditOK = talloc.Audit(tx, db.DynBase())
		return 0
	})
	if !auditOK {
		return fmt.Errorf("allocator audit failed after %d acked txns", acked)
	}

	// Invariant 3: differential state. The crash interrupted transaction
	// acked+1 (if any); recovery must land on exactly the oracle state
	// after acked or acked+1 transactions — all-or-nothing, never torn,
	// and never losing an acknowledged commit.
	got := readState(r)
	next := acked + 1
	if next > p.Len() {
		next = p.Len()
	}
	if got != p.StateAfter(acked) && got != p.StateAfter(next) {
		return fmt.Errorf(
			"oracle divergence after %d acked txns:\n--- recovered ---\n%s\n--- want (k=%d) ---\n%s\n--- or (k=%d) ---\n%s",
			acked, got, acked, p.StateAfter(acked), next, p.StateAfter(next))
	}

	// Invariant 4: liveness — the recovered engine still commits and reads.
	r.Update(func(tx tm.Tx) uint64 {
		tx.Store(tm.Root(8), 0xBEEF)
		return 0
	})
	if v := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(8)) }); v != 0xBEEF {
		return errors.New("post-recovery update lost")
	}
	return nil
}

// Run executes the crash-point matrix described by cfg and returns the
// aggregated result. It never stops at the first violation: the full list
// of failing points is part of the report.
func Run(cfg Config) (*Result, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 10
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	names := cfg.Engines
	if len(names) == 0 {
		if cfg.Batch > 1 {
			names = []string{"OF-LF-PTM", "OF-WF-PTM"}
		} else {
			for _, d := range Engines() {
				names = append(names, d.Name)
			}
		}
	}
	p := NewProgram(cfg.Seed, cfg.Txns)
	res := &Result{Events: map[string]int{}}

	type sweep struct {
		mode    pmem.Mode
		devSeed int64
	}
	var sweeps []sweep
	if cfg.Strict {
		sweeps = append(sweeps, sweep{pmem.StrictMode, 1})
	}
	for _, s := range cfg.RelaxedSeeds {
		sweeps = append(sweeps, sweep{pmem.RelaxedMode, s})
	}

	for _, name := range names {
		def, err := EngineByName(name)
		if err != nil {
			return nil, err
		}
		for _, sw := range sweeps {
			var events int
			var err error
			if cfg.Batch > 1 {
				events, err = EnumerateBatchedOn(cfg.Device, def, sw.mode, p, cfg.Batch)
			} else {
				events, err = EnumerateOn(cfg.Device, def, sw.mode, p)
			}
			if err != nil {
				return nil, fmt.Errorf("crashcheck: enumerating %s: %w", name, err)
			}
			res.Events[name] = events
			logf("%s mode=%d devseed=%d batch=%d: %d persistence events, checking every %d",
				name, sw.mode, sw.devSeed, cfg.Batch, events, cfg.Stride)
			for i := 1; i <= events; i += cfg.Stride {
				var completed bool
				if cfg.Batch > 1 {
					completed, err = RunPointBatchedOn(cfg.Device, def, sw.mode, sw.devSeed, p, cfg.Batch, i)
				} else {
					completed, err = RunPointOn(cfg.Device, def, sw.mode, sw.devSeed, p, i)
				}
				if completed {
					break
				}
				res.Points++
				if err != nil {
					v := Violation{
						Engine: name, Mode: sw.mode, DevSeed: sw.devSeed,
						Seed: cfg.Seed, Txns: cfg.Txns, Event: i, Detail: err.Error(),
					}
					res.Violations = append(res.Violations, v)
					logf("VIOLATION %s", v)
				}
			}
		}
	}
	return res, nil
}
