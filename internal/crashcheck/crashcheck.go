// Package crashcheck is the systematic crash-consistency verifier for every
// persistent engine in this repository. Where internal/bench's kill test
// crashes at *random* persistence events, crashcheck enumerates *all* of
// them, following the systematic-enumeration methodology of the PMDK
// validation line of work (Raad et al.).
//
// A scenario is the system under crash. There are three: one engine running
// the canonical Program; the same Program run as batches in chunks
// (Config.Batch); and a ShardedProgram over N devices
// with cross-shard two-phase commits (Config.Shards). One driver crashes
// them all (scenario.go). crashAt counts the persistence events
// (pwb/pfence/drain) of a run with one hook shared by every device, and on a
// re-run panics at event i and at every later one, so the power failure hits
// the whole machine at once and a dead process makes nothing more durable;
// then every device Crashes. recoverAndVerify re-attaches and demands that
// recovery succeeds, that every allocator audits clean, that the state is
// the sequential oracle's after exactly the acknowledged transactions or
// after those plus the whole unit in flight (an intermediate prefix of a
// chunk is a TORN BATCH), and that the system still commits.
//
// In RelaxedMode the device additionally drops a seed-chosen subset of
// buffered-but-unfenced flushes at the crash, so each enumeration is swept
// across device seeds. Every Violation carries what replays it exactly.
package crashcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/romulus"
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

// oneFile lists the OneFile PTMs: the engines that batch (tm.Combining)
// and the engines a shard.Store is built from.
var oneFile = []string{"OF-LF-PTM", "OF-WF-PTM"}

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

// FileDevices formats each device as a fresh mmap-backed file in dir. Points
// run one after another, so the files are reused round-robin: live is the
// number of devices one point holds (the shard count, else 1), and 2×live
// paths keep a point's set apart from the set of the point before it.
func FileDevices(dir string, live int) DeviceFactory {
	live = max(live, 1)
	n := 0
	return func(cfg pmem.Config) (pmem.Device, error) {
		n++
		path := filepath.Join(dir, fmt.Sprintf("sweep-%d.img", n%(2*live)))
		os.Remove(path)
		return filedev.Create(path, cfg)
	}
}

// Config parameterises a matrix run.
type Config struct {
	// Engines to sweep; nil = every engine the scenario admits.
	Engines []string
	// Txns is the number of mixed transactions after the setup ones.
	Txns int
	// Seed derives the workload program.
	Seed int64
	// Stride checks every Stride-th event index (1 = exhaustive).
	Stride int
	// Batch > 1 runs the workload as tm.Batch calls in chunks of Batch; recovery must be all-or-nothing per chunk.
	Batch int
	// Shards ≥ 2 runs the cross-shard workload over Shards devices, each
	// shard the named engine. Batch and Shards need OneFile PTMs and exclude
	// each other.
	Shards int
	// Strict enables the StrictMode sweep.
	Strict bool
	// RelaxedSeeds are device seeds for the RelaxedMode sweeps (shard i's
	// device gets seed+i); empty disables RelaxedMode.
	RelaxedSeeds []int64
	// Device builds the device for each sweep point; nil = simulator. A
	// sharded sweep holds Shards devices per point (see FileDevices).
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
	Batch   int
	Shards  int
	Event   int
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s mode=%d devseed=%d wlseed=%d txns=%d batch=%d shards=%d event=%d: %s",
		v.Engine, v.Mode, v.DevSeed, v.Seed, v.Txns, v.Batch, v.Shards, v.Event, v.Detail)
}

// Result summarises a matrix run.
type Result struct {
	Points     int            // crash points exercised
	Events     map[string]int // canonical-workload event count per scenario
	Violations []Violation
}

// newScenario builds the scenario cfg describes for def, or says why cfg
// does not admit def.
func newScenario(cfg Config, def EngineDef) (scenario, error) {
	isOneFile := slices.Contains(oneFile, def.Name)
	switch {
	case cfg.Shards > 1 && cfg.Batch > 1:
		return nil, fmt.Errorf("crashcheck: a sharded sweep submits no batches (Shards=%d, Batch=%d)", cfg.Shards, cfg.Batch)
	case cfg.Shards > 1 && !isOneFile:
		return nil, fmt.Errorf("crashcheck: %s cannot be sharded; shards are OneFile PTMs", def.Name)
	case cfg.Shards > 1:
		return sharded{def.Name, NewShardedProgram(cfg.Seed, cfg.Shards, cfg.Txns)}, nil
	case cfg.Batch > 1 && !isOneFile:
		return nil, fmt.Errorf("crashcheck: %s does not batch; batched sweep is not meaningful", def.Name)
	case cfg.Batch > 1:
		return batched{single{def, NewProgram(cfg.Seed, cfg.Txns)}, cfg.Batch}, nil
	}
	return single{def, NewProgram(cfg.Seed, cfg.Txns)}, nil
}

// Run executes the crash-point matrix described by cfg and returns the
// aggregated result. A configuration it does not admit is an error before
// any point runs. It never stops at the first violation: the full list of
// failing points is part of the report.
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
	cfg.Batch = max(cfg.Batch, 1)
	cfg.Shards = max(cfg.Shards, 1)
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	names := cfg.Engines
	if len(names) == 0 {
		if cfg.Batch > 1 || cfg.Shards > 1 {
			names = oneFile
		} else {
			for _, d := range Engines() {
				names = append(names, d.Name)
			}
		}
	}
	scs := make([]scenario, len(names))
	for i, name := range names {
		def, err := EngineByName(name)
		if err != nil {
			return nil, err
		}
		if scs[i], err = newScenario(cfg, def); err != nil {
			return nil, err
		}
	}

	var sweeps []sweep
	if cfg.Strict {
		sweeps = append(sweeps, sweep{pmem.StrictMode, 1})
	}
	for _, s := range cfg.RelaxedSeeds {
		sweeps = append(sweeps, sweep{pmem.RelaxedMode, s})
	}

	res := &Result{Events: map[string]int{}}
	for i, sc := range scs {
		for _, sw := range sweeps {
			count, err := runPoint(sc, cfg.Device, sw, 0)
			if err != nil {
				return nil, fmt.Errorf("crashcheck: enumerating %s: %w", sc.name(), err)
			}
			res.Events[sc.name()] = count.events
			logf("%s mode=%d devseed=%d batch=%d shards=%d: %d persistence events, checking every %d",
				sc.name(), sw.mode, sw.devSeed, cfg.Batch, cfg.Shards, count.events, cfg.Stride)
			for event := 1; event <= count.events; event += cfg.Stride {
				tr, err := runPoint(sc, cfg.Device, sw, event)
				if err == nil && !tr.crashed {
					break // the workload finished before the event
				}
				res.Points++
				if err != nil {
					v := Violation{
						Engine: names[i], Mode: sw.mode, DevSeed: sw.devSeed, Seed: cfg.Seed,
						Txns: cfg.Txns, Batch: cfg.Batch, Shards: cfg.Shards, Event: event, Detail: err.Error(),
					}
					res.Violations = append(res.Violations, v)
					logf("VIOLATION %s", v)
				}
			}
		}
	}
	return res, nil
}
