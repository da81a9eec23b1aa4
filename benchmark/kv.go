package main

// The three KV workloads: kvserver over loopback TCP on the lock-free
// persistent engine, on the simulated device (kv-update, kv-readscan) or a
// real file (kv-disk).

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"onefile/internal/core"
	"onefile/internal/kvserver"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/tm"
)

// kvSpec fixes everything about a KV workload that is not drawn from the
// seed. Sizes are constants of the workload so mem_bytes_per_item compares
// across commits.
type kvSpec struct {
	name      string
	nKeys     int
	heapWords int
	depth     int // commands in flight on the one connection
	mix       kvMix
	disk      bool
}

var kvSpecs = map[string]kvSpec{
	"kv-update":   {name: "kv-update", nKeys: 1 << 16, heapWords: 1 << 21, depth: 32, mix: kvMix{set: 49, scan: 2}},
	"kv-readscan": {name: "kv-readscan", nKeys: 1 << 16, heapWords: 1 << 21, depth: 32, mix: kvMix{set: 5, scan: 5}},
	"kv-disk":     {name: "kv-disk", nKeys: 1 << 12, heapWords: 1 << 18, depth: 8, mix: kvMix{set: 60, scan: 5}, disk: true},
}

const (
	kvMaxThreads = 16
	kvMaxStores  = 1 << 13
	// preloadChunk keys go into one preload transaction: "a few large
	// transactions", so set-up on the file device is not 4,096 syncs.
	preloadChunk = 128
	// burstSets acknowledged SETs precede every crash.
	burstSets = 256
)

func (s *kvSpec) engineOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(s.heapWords),
		tm.WithMaxThreads(kvMaxThreads),
		tm.WithMaxStores(kvMaxStores),
	}
}

// kvSys is one running instance of the system under test.
type kvSys struct {
	spec *kvSpec
	path string      // device file, "" on the simulator
	raw  pmem.Device // the device itself
	dev  pmem.Device // what the engine is given: raw, or raw behind the trace decorator
	eng  *core.Engine
	be   kvserver.Backend
	ix   *kvserver.Index
	srv  *kvserver.Server
	addr string
	done chan error
	tr   *tracer
}

// createKV builds a fresh system: device, engine, index, preload of every
// key at version 1, listening server. This is what setup_s times.
func createKV(spec *kvSpec, m *kvModel, dir string, tr *tracer) (*kvSys, error) {
	s := &kvSys{spec: spec, tr: tr, ix: kvserver.NewIndex(spec.nKeys)}
	cfg := core.DeviceConfig(pmem.StrictMode, int64(m.seed), spec.engineOpts()...)
	if spec.disk {
		s.path = filepath.Join(dir, spec.name+".dev")
		if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		d, err := filedev.Create(s.path, cfg)
		if err != nil {
			return nil, fmt.Errorf("create device file: %w", err)
		}
		s.raw = d
	} else {
		d, err := pmem.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("create simulated device: %w", err)
		}
		s.raw = d
	}
	s.dev = s.raw
	if tr != nil {
		s.dev = &tracedDevice{Device: s.raw, t: tr}
	}
	if err := s.open(false); err != nil {
		s.raw.Close()
		return nil, err
	}
	val := make([]byte, valLen)
	for lo := 0; lo < spec.nKeys; lo += preloadChunk {
		hi := min(lo+preloadChunk, spec.nKeys)
		_, err := s.be.Async(0, func(tx tm.Tx) uint64 {
			for i := lo; i < hi; i++ {
				m.value(val, i, 1)
				k := m.key(i)
				s.ix.SetTx(tx, kvserver.HashKey(k), k, val)
			}
			return 0
		}).Wait()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for i := range m.ver {
		m.ver[i] = 1
	}
	if err := s.serve(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// open creates (attach=false) or re-attaches (attach=true) the engine on
// the device and puts a server in front of it.
func (s *kvSys) open(attach bool) error {
	eng, err := core.NewPersistentLF(s.dev, attach, s.spec.engineOpts()...)
	if err != nil {
		return fmt.Errorf("open engine (attach=%v): %w", attach, err)
	}
	s.eng = eng
	s.be = kvserver.EngineBackend{E: eng}
	if s.tr != nil {
		s.be = &tracedBackend{Backend: s.be, t: s.tr}
	}
	s.srv = kvserver.NewServer(s.be, s.ix, nil)
	if err := s.srv.Init(); err != nil {
		return fmt.Errorf("init index: %w", err)
	}
	return nil
}

func (s *kvSys) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.addr = ln.Addr().String()
	s.done = make(chan error, 1)
	srv := s.srv
	go func() { s.done <- srv.Serve(ln) }()
	// Shutdown closes only a listener Serve has already registered; one
	// that arrives later is served for ever. Wait for the registration.
	for srv.Addr() == nil {
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// stopServer drains the server and waits for its accept loop to end.
func (s *kvSys) stopServer() error {
	if s.done == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; err == nil {
		err = serveErr
	}
	s.done = nil
	return err
}

// close tears the system down and removes its device file.
func (s *kvSys) close() error {
	err := s.stopServer()
	if s.eng != nil {
		s.eng.Close()
	}
	if cerr := s.raw.Close(); err == nil {
		err = cerr
	}
	if s.path != "" {
		os.Remove(s.path)
	}
	return err
}

// crashAndRecover discards everything not durable, re-attaches, and
// answers one read. It returns the whole interval and the attach part.
func (s *kvSys) crashAndRecover(m *kvModel) (total, attach time.Duration, err error) {
	if err := s.stopServer(); err != nil {
		return 0, 0, err
	}
	s.eng.Close()
	runtime.GC() // start every cycle from the same heap
	start := time.Now()
	s.raw.Crash()
	attachStart := time.Now()
	if err := s.open(true); err != nil {
		return 0, 0, err
	}
	attach = time.Since(attachStart)
	k := m.key(0)
	s.be.Read(0, func(tx tm.Tx) uint64 {
		s.ix.GetTx(tx, kvserver.HashKey(k), k)
		return 0
	})
	total = time.Since(start)
	return total, attach, s.serve()
}

func (s *kvSys) fileBytes() float64 {
	if s.path == "" {
		return 0
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

func runKV(spec kvSpec, opt *options) (*outcome, error) {
	out := newOutcome()
	// One connection is a serial ping-pong between the client goroutine and
	// its server handler. On two Ps every hand-off wakes an idle vCPU
	// through the hypervisor, and that wake-up latency — the host's, not
	// the program's — set the variance (probe: 1 s windows from 92k to 184k
	// ops/s within one run while a pure ALU loop stayed within 2 %; on one
	// P, 200k to 250k). Both goroutines therefore share one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out.note("GOMAXPROCS=1 for the measured system (see README)")
	base := time.Now()
	var tr *tracer
	if opt.trace {
		tr = newTracer(base)
	}
	if spec.disk {
		fs, err := checkDiskDir(opt, out)
		if err != nil {
			return nil, err
		}
		out.note("filesystem of -dir %s: %s", opt.dir, fs)
	}
	m := newKVModel(spec.nKeys, kvserver.NewIndex(spec.nKeys).Buckets(), opt.seed)
	plan := newPhasePlan(opt, 1)

	// Set-up, several times: one creation is a single sample of a
	// sub-second interval on a shared host.
	heapBefore := liveHeap()
	var sys *kvSys
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the previous instance's garbage is not this one's cost
		start := time.Now()
		var err error
		if sys, err = createKV(&spec, m, opt.dir, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { sys.close() }()
	out.set("setup_s", median(setups), "s")
	out.note("setup_s: each of the %d creations %.4f", setupReps, setups)
	out.set("mem_bytes_per_item", (liveHeap()-heapBefore+sys.fileBytes())/float64(spec.nKeys), "B")

	cl, err := dialKV(sys.addr, spec.depth, m, opt.seed)
	if err != nil {
		return nil, err
	}
	defer func() { cl.close() }()
	tally := func() { out.count(&cl.attempted, &cl.failed, cl.firstFailure) }
	fail := func(err error) (*outcome, error) {
		tally()
		return out, err
	}

	// One crash and recovery: fresh acknowledged writes, the crash that must
	// keep them, and a full-state check of what came back.
	var recovers, attaches []float64
	recoverOnce := func() error {
		if err := cl.mixed(kvMix{set: 100}, burstSets, cl.rng); err != nil {
			return err
		}
		tally()
		cl.close()
		total, attach, err := sys.crashAndRecover(m)
		if err != nil {
			return err
		}
		recovers = append(recovers, total.Seconds())
		attaches = append(attaches, attach.Seconds())
		again, err := dialKV(sys.addr, spec.depth, m, opt.seed+uint64(len(recovers)))
		if err != nil {
			return err
		}
		cl = again
		return cl.verifyAll()
	}

	// The first half of the recoveries, on the preloaded store.
	for len(recovers) < recoverCycles/2 {
		if err := recoverOnce(); err != nil {
			return fail(err)
		}
	}

	// Warm-up and measured phase, one closed loop throughout.
	probe := newLayerProbe(tr, sys.eng, sys.raw)
	if probe != nil {
		// A fixed number of operations from a stream of their own, on a
		// store only seeded operations have touched: with one client the
		// persistence counts of this pass repeat exactly.
		probe.beginCounted()
		if err := cl.mixed(spec.mix, countedOps, rand.New(rand.NewPCG(opt.seed, countedStream))); err != nil {
			return fail(err)
		}
		probe.endCounted()
	}
	probe.start()
	for i := range plan.segs {
		seg := &plan.segs[i]
		probe.setTracing(seg.traced)
		start := int64(time.Since(base)) + int64(seg.warm)
		if err := cl.load(spec.mix, seg.recs[0], tr, base, start, start+int64(seg.dur)); err != nil {
			return fail(err)
		}
	}
	probe.stop()
	plan.report(out, opt.trace)

	// Full state after the run.
	if err := cl.verifyAll(); err != nil {
		return fail(err)
	}

	// The second half of the recoveries, on the store the run left.
	for len(recovers) < recoverCycles {
		if err := recoverOnce(); err != nil {
			return fail(err)
		}
	}
	tally()
	reportRecovery(out, recovers)

	if tr != nil {
		probe.report(out, plan)
		out.set("core.attach_ms_per_mword", firstQuartile(attaches)*1e3/(float64(spec.heapWords)/1e6), "ms")
		kvLayerMetrics(out, tr, probe)
		if err := tr.write(filepath.Join(opt.out, "trace.json")); err != nil {
			return out, err
		}
	}
	return out, nil
}

// kvLayerMetrics derives the per-layer numbers only a KV workload's spans
// can give.
func kvLayerMetrics(out *outcome, tr *tracer, p *layerProbe) {
	commits := float64(p.eng.Commits)
	if commits > 0 {
		self := tr.sumNs(spBackendAsync) - tr.sumNs(spIndexUpdate) - p.devNs()
		out.set("core.commit_self_us", self/commits/1e3, "us")
	}
	out.set("tm.async_wait_p50_us", tr.agg[spAsyncWait].lat.snapshot().quantile(0.5)/1e3, "us")
	out.set("kvserver.index_get_ns", tr.agg[spIndexRead].lat.snapshot().quantile(0.5), "ns")
	out.set("kvserver.index_set_ns", tr.agg[spIndexUpdate].lat.snapshot().quantile(0.5), "ns")
	if n := tr.count(spRequest); n > 0 {
		// Window time not spent in the backend: socket, RESP parsing and
		// reply building on both ends, per operation.
		self := tr.sumNs(spWindow) - tr.sumNs(spBackendAsync) - tr.sumNs(spBackendRead)
		out.set("kvserver.self_us_per_op", self/float64(n)/1e3, "us")
	}
}

// diskProbeOps operations make the file-device probe of a traced run.
const diskProbeOps = 1 << 12

// diskProbe is a short traced pass of kv-disk, part of every -trace 1 run:
// the file device's share of a durable commit, whatever workload the run
// measured. On the file device every drain and fence is an msync.
func diskProbe(opt *options, out *outcome) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := kvSpecs["kv-disk"]
	fs, err := checkDiskDir(opt, out)
	if err != nil {
		return err
	}
	out.note("file-device probe: %d operations of kv-disk under %s (%s)", diskProbeOps, opt.dir, fs)
	tr := newTracer(time.Now())
	m := newKVModel(spec.nKeys, kvserver.NewIndex(spec.nKeys).Buckets(), opt.seed)
	sys, err := createKV(&spec, m, opt.dir, tr)
	if err != nil {
		return err
	}
	defer sys.close()
	cl, err := dialKV(sys.addr, spec.depth, m, opt.seed)
	if err != nil {
		return err
	}
	defer cl.close()
	probe := newLayerProbe(tr, sys.eng, sys.raw)
	probe.setTracing(true)
	err = cl.mixed(spec.mix, diskProbeOps, cl.rng)
	probe.setTracing(false)
	out.count(&cl.attempted, &cl.failed, cl.firstFailure)
	if err != nil {
		return err
	}
	var syncs hist
	syncs.merge(tr.agg[spDevDrain].lat.snapshot())
	syncs.merge(tr.agg[spDevFence].lat.snapshot())
	out.set("filedev.sync_p50_us", syncs.quantile(0.5)/1e3, "us")
	out.set("filedev.syncs_per_commit", ratio(float64(syncs.n), float64(probe.eng.Commits)), "count")
	out.set("filedev.busy_frac", ratio(probe.devNs(), probe.tracedNs), "frac")
	return nil
}
