package crashcheck

import (
	"errors"
	"fmt"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/talloc"
	"onefile/internal/tm"
)

// scenario is the system under crash. It says how to open fresh devices
// and run its workload on them, how many workload transactions one
// acknowledgement can leave in flight, and how to attach after a crash.
// Its oracle (Len, StateAfter) is the workload's sequential specification.
// The crash, the audit, the oracle check and the sweep are the driver's
// (crashAt, recoverAndVerify, Run) and are the same for every scenario.
type scenario interface {
	oracle
	// name labels the scenario in progress lines and Result.Events.
	name() string
	// open formats fresh devices (devSeed for the first, +1 for each next)
	// and builds the system on them. run executes the workload on that
	// system, calling ack(n) as each submission of n workload transactions
	// returns.
	open(fac DeviceFactory, mode pmem.Mode, devSeed int64) (devs []pmem.Device, run func(ack func(n int)) error, err error)
	// inflight is the number of workload transactions submitted as one
	// all-or-nothing unit after acked returned (1, or a chunk).
	inflight(acked int) int
	// attach recovers the system on devices that crashed.
	attach(devs []pmem.Device) (recovered, error)
}

// oracle is a workload's sequential specification: the digest of the
// logical state after each prefix of its transactions.
type oracle interface {
	Len() int
	StateAfter(k int) string
}

// recovered is a system attached after a crash.
type recovered struct {
	engines []tm.Engine   // each must audit clean
	state   func() string // the logical state, as an oracle digest
	live    func() error  // commits and reads once more
}

// sweep is one pass of a matrix over every event index: a device mode and
// the seed of a point's first device.
type sweep struct {
	mode    pmem.Mode
	devSeed int64
}

// crashSignal is the panic value of the simulated power failure. Once the
// hook fires it keeps firing for every later persistence event, so a dead
// process cannot make anything more durable (e.g. a rollback running inside
// a deferred handler while the crash panic unwinds).
type crashSignal struct{ event int }

// trace is what one crashAt saw.
type trace struct {
	events  int  // persistence events issued, across every device
	acked   int  // workload transactions acknowledged before the crash
	crashed bool // the run reached the event and every device crashed
}

// crashAt runs one point's workload on devs under one counting hook shared
// by every device, so the crash is a whole-machine event. Persistence event
// number event (1-based, counted across all devices) and every later one
// panic with crashSignal before taking effect; then every device Crashes.
// Event 0 only counts: the run completes and trace.events is the size of the
// crash-point space, a pure function of the scenario because every workload
// is single-threaded and every engine schedules deterministically. observe,
// when non-nil, sees every event that does not crash.
func crashAt(devs []pmem.Device, run func(ack func(n int)) error, event int, observe func(pmem.Event)) (tr trace, err error) {
	hook := func(ev pmem.Event) {
		tr.events++
		if event > 0 && tr.events >= event {
			panic(crashSignal{event: event})
		}
		if observe != nil {
			observe(ev)
		}
	}
	for _, d := range devs {
		d.SetHook(hook)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSignal); !ok {
					panic(r)
				}
				tr.crashed = true
			}
		}()
		err = run(func(n int) { tr.acked += n })
	}()
	for _, d := range devs {
		d.SetHook(nil)
	}
	if tr.crashed {
		// The power failure: lose everything that was not durable.
		for _, d := range devs {
			d.Crash()
		}
	}
	return tr, err
}

// runPoint opens fresh devices for sc, crashes them at event and verifies
// the recovery. Event 0 only counts.
func runPoint(sc scenario, fac DeviceFactory, sw sweep, event int) (trace, error) {
	devs, run, err := sc.open(fac, sw.mode, sw.devSeed)
	if err != nil {
		return trace{}, err
	}
	defer closeAll(devs)
	tr, err := crashAt(devs, run, event, nil)
	if err != nil || !tr.crashed {
		return tr, err
	}
	return tr, recoverAndVerify(sc, devs, tr.acked)
}

func closeAll(devs []pmem.Device) {
	for _, d := range devs {
		d.Close()
	}
}

// recoverAndVerify attaches sc to devs, which must hold a post-crash image
// set, and checks every recovery invariant: attach succeeds, every engine's
// allocator audits clean, the logical state passes checkOracle, and the
// recovered system still commits.
func recoverAndVerify(sc scenario, devs []pmem.Device, acked int) error {
	r, err := sc.attach(devs)
	if err != nil {
		return fmt.Errorf("recovery failed after %d acked txns: %w", acked, err)
	}
	for i, e := range r.engines {
		if !audit(e) {
			return fmt.Errorf("engine %d: allocator audit failed after %d acked txns", i, acked)
		}
	}
	if err := checkOracle(sc, r.state(), acked, sc.inflight(acked)); err != nil {
		return err
	}
	return r.live()
}

// audit reports whether e's heap tiles exactly into valid allocator blocks.
func audit(e tm.Engine) bool {
	db, ok := e.(interface{ DynBase() tm.Ptr })
	if !ok {
		return false
	}
	clean := false
	e.Read(func(tx tm.Tx) uint64 {
		_, _, clean = talloc.Audit(tx, db.DynBase())
		return 0
	})
	return clean
}

// checkOracle holds a recovered state to the oracle. The crash came after
// acked workload transactions returned, with the next inflight submitted as
// one unit: recovery must land on exactly StateAfter(acked) (the unit lost)
// or StateAfter(acked+inflight) (the unit durable), never losing an
// acknowledged commit. An intermediate prefix of the unit is a TORN BATCH.
// Every workload stamps each transaction with a distinct generation, so
// prefix digests are distinct and tearing cannot hide.
func checkOracle(o oracle, got string, acked, inflight int) error {
	next := min(acked+inflight, o.Len())
	if got == o.StateAfter(acked) || got == o.StateAfter(next) {
		return nil
	}
	for k := acked + 1; k < next; k++ {
		if got == o.StateAfter(k) {
			return fmt.Errorf(
				"TORN BATCH after %d acked txns: recovered to intermediate prefix k=%d of in-flight chunk [%d,%d]",
				acked, k, acked+1, next)
		}
	}
	return fmt.Errorf(
		"oracle divergence after %d acked txns (%d in flight):\n--- recovered ---\n%s\n--- want (k=%d) ---\n%s\n--- or (k=%d) ---\n%s",
		acked, inflight, got, acked, o.StateAfter(acked), next, o.StateAfter(next))
}

// single runs the canonical Program on one engine, one engine transaction
// per workload transaction. A OneFile engine runs it through
// UpdatePublished: a lone goroutine's update on OF-WF-PTM never publishes
// otherwise, and this matrix would sweep the lock-free commit twice instead
// of the paper's wait-free path (§III-E).
type single struct {
	def EngineDef
	*Program
}

func (s single) name() string { return s.def.Name }

func (s single) open(fac DeviceFactory, mode pmem.Mode, devSeed int64) ([]pmem.Device, func(func(int)) error, error) {
	dev, e, err := openEngine(s.def, fac, mode, devSeed)
	if err != nil {
		return nil, nil, err
	}
	if of, ok := e.(*core.Engine); ok {
		e = publishing{of}
	}
	return []pmem.Device{dev}, func(ack func(int)) error { return s.run(e, 1, ack) }, nil
}

// publishing is a OneFile engine whose Update is UpdatePublished.
type publishing struct{ *core.Engine }

func (p publishing) Update(fn func(tm.Tx) uint64) uint64 { return p.UpdatePublished(fn) }

func (single) inflight(int) int { return 1 }

func (s single) attach(devs []pmem.Device) (recovered, error) {
	e, err := s.def.New(devs[0], true, engineOpts()...)
	if err != nil {
		return recovered{}, err
	}
	return recovered{
		engines: []tm.Engine{e},
		state:   func() string { return readState(e) },
		live: func() error {
			e.Update(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(8), 0xBEEF)
				return 0
			})
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(8)) }); v != 0xBEEF {
				return errors.New("post-recovery update lost")
			}
			return nil
		},
	}, nil
}

// batched runs the canonical Program with its mixed transactions submitted
// through the engine's group-commit combiner (tm.Batch) in chunks of batch,
// so one physical transaction carries several workload transactions and
// the whole chunk is the unit in flight. Only engines whose combiner merges
// submissions (tm.Combining: the OneFile PTMs) are eligible; the portable
// fallback runs one engine transaction per operation, which has no batch
// atomicity to verify.
type batched struct {
	single
	batch int
}

func (b batched) open(fac DeviceFactory, mode pmem.Mode, devSeed int64) ([]pmem.Device, func(func(int)) error, error) {
	dev, e, err := openEngine(b.def, fac, mode, devSeed)
	if err != nil {
		return nil, nil, err
	}
	return []pmem.Device{dev}, func(ack func(int)) error { return b.run(e, b.batch, ack) }, nil
}

// inflight returns how many workload transactions the chunk in flight
// after acked completed ones carries (0 when the program is done).
func (b batched) inflight(acked int) int {
	if acked < 3 { // still in solo setup
		return 1
	}
	return min(len(b.txns)-acked, b.batch)
}

// openEngine formats a fresh device for def and builds its engine on it.
func openEngine(def EngineDef, fac DeviceFactory, mode pmem.Mode, devSeed int64) (pmem.Device, tm.Engine, error) {
	dev, err := fac.newDevice(def.DeviceConfig(mode, devSeed, engineOpts()...))
	if err != nil {
		return nil, nil, err
	}
	e, err := def.New(dev, false, engineOpts()...)
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	return dev, e, nil
}
