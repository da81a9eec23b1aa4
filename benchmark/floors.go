package main

// Solo floor loops: each layer's public functions called alone, from here,
// with nothing else running — the cost under which no end-to-end number
// can go. They are part of every -trace 1 run, identical on every
// workload, so a layer's floor can be read next to the workload-derived
// numbers of the same run.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"onefile/containers"
	"onefile/internal/core"
	"onefile/internal/dcas"
	"onefile/internal/kvserver"
	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

const (
	// floorLoops loop lengths are what runFloors takes: one per floorNs call,
	// two per floorPairNs call.
	floorLoops   = 23
	floorWindows = 5
	floorBatch   = 64 // calls between two clock reads
)

// floorNs times fn in floorWindows windows filling d together and returns
// the median window's nanoseconds per call.
func floorNs(d time.Duration, fn func()) float64 {
	window := d / floorWindows
	per := make([]float64, 0, floorWindows)
	for w := 0; w < floorWindows; w++ {
		start := time.Now()
		calls := 0
		var elapsed time.Duration
		for elapsed < window {
			for i := 0; i < floorBatch; i++ {
				fn()
			}
			calls += floorBatch
			elapsed = time.Since(start)
		}
		per = append(per, float64(elapsed)/float64(calls))
	}
	return median(per)
}

// floorPairNs times a and b in alternating windows, so that both see the
// same seconds of the host: for metrics that are a difference or a ratio.
func floorPairNs(d time.Duration, a, b func()) (aNs, bNs float64) {
	var as, bs []float64
	for w := 0; w < floorWindows; w++ {
		as = append(as, floorNs(d/floorWindows, a))
		bs = append(bs, floorNs(d/floorWindows, b))
	}
	return median(as), median(bs)
}

func floorOpts() []tm.Option {
	return []tm.Option{tm.WithHeapWords(1 << 16), tm.WithMaxThreads(8), tm.WithMaxStores(1 << 12)}
}

// floorEngine is a small persistent engine on a fresh strict simulator.
func floorEngine(waitFree bool) (*core.Engine, error) {
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 1, floorOpts()...))
	if err != nil {
		return nil, err
	}
	if waitFree {
		return core.NewPersistentWF(dev, false, floorOpts()...)
	}
	return core.NewPersistentLF(dev, false, floorOpts()...)
}

// fenceFloor is one 8-byte store made durable on a file device under dir:
// write, pwb, pfence — the floor of a durable commit there.
func fenceFloor(dir string, d time.Duration) (fenceUs, flushNs float64, err error) {
	path := filepath.Join(dir, "floor.dev")
	os.Remove(path)
	dev, err := filedev.Create(path, pmem.Config{RawWords: 1 << 12, PairWords: 1 << 12, Mode: pmem.StrictMode, MaxSlots: 2})
	if err != nil {
		return 0, 0, fmt.Errorf("fence floor: %w", err)
	}
	defer os.Remove(path)
	defer dev.Close()
	var v uint64
	flushNs = floorNs(d, func() {
		v++
		dev.FlushPair(0, int(v%1024), v, v)
	})
	dev.Fence(0)
	fenceUs = floorNs(d, func() {
		v++
		dev.RawStore(64, v)
		dev.Flush(0, 64, 1)
		dev.Fence(0)
	}) / 1e3
	return fenceUs, flushNs, nil
}

// runFloors sets every floor metric in out.
func runFloors(opt *options, out *outcome) error {
	d := opt.floor
	var sink uint64

	// dcas: the engine's recycled-pair DCAS and its two-word load.
	var w dcas.Word
	w.Store(0, 0)
	spare := &dcas.Pair{}
	out.set("dcas.cas_ns", floorNs(d, func() {
		old := w.Snapshot()
		spare.Val, spare.Seq = old.Val+1, old.Seq+1
		w.CompareAndSwapPair(old, spare)
		spare = old
	}), "ns")
	out.set("dcas.load_ns", floorNs(d, func() {
		v, s := w.Load()
		sink += v + s
	}), "ns")

	// pmem: one pwb and one ordering point on the simulator.
	sim, err := pmem.New(pmem.Config{RawWords: 1 << 12, PairWords: 1 << 12, Mode: pmem.StrictMode, MaxSlots: 2})
	if err != nil {
		return err
	}
	var n uint64
	out.set("pmem.sim_flush_ns", floorNs(d, func() {
		n++
		sim.FlushPair(0, int(n%1024), n, n)
	}), "ns")
	out.set("pmem.sim_drain_ns", floorNs(d, func() { sim.Drain(0) }), "ns")

	// filedev: the same two on a real file under -dir, and the device's
	// share of the KV server's durable commits there.
	if err := diskProbe(opt, out); err != nil {
		return err
	}
	fenceUs, flushNs, err := fenceFloor(opt.dir, d)
	if err != nil {
		return err
	}
	out.set("filedev.fence_floor_disk_us", fenceUs, "us")
	out.set("filedev.flush_ns", flushNs, "ns")

	// core: solo one-word transactions on every route.
	lf, err := floorEngine(false)
	if err != nil {
		return err
	}
	wf, err := floorEngine(true)
	if err != nil {
		return err
	}
	word := tm.Root(8)
	store := func(tx tm.Tx) uint64 { tx.Store(word, tx.Load(word)+1); return 0 }
	lfUpdate := floorNs(d, func() { lf.Update(store) })
	out.set("core.lf_update_ns", lfUpdate, "ns")
	out.set("core.wf_update_ns", floorNs(d, func() { wf.Update(store) }), "ns")
	out.set("core.small_update_ns", floorNs(d, func() { lf.UpdateSmall(store) }), "ns")
	out.set("core.read_ns", floorNs(d, func() { sink += lf.Read(func(tx tm.Tx) uint64 { return tx.Load(word) }) }), "ns")

	// tm: sixteen one-word operations through the combiner, per operation.
	fns := make([]func(tm.Tx) uint64, 16)
	for i := range fns {
		fns[i] = store
	}
	out.set("tm.batch16_ns_per_op", floorNs(d, func() { lf.BatchUpdate(fns) })/16, "ns")

	// talloc: an allocation and its release inside one transaction, over
	// an empty one.
	allocFree, empty := floorPairNs(d,
		func() { lf.Update(func(tx tm.Tx) uint64 { tx.Free(tx.Alloc(8)); return 0 }) },
		func() { lf.Update(func(tm.Tx) uint64 { return 0 }) })
	out.set("talloc.alloc_free_ns", allocFree-empty, "ns")

	// obs: the same solo update with and without the full metrics sink.
	sink0 := lf.RegisterMetrics(obs.NewRegistry(), "floor")
	attached, detached := floorPairNs(d,
		func() { lf.SetObs(sink0); lf.Update(store) },
		func() { lf.SetObs(nil); lf.Update(store) })
	lf.SetObs(nil)
	out.set("obs.attached_overhead_frac", attached/detached-1, "frac")

	// shard: routing over a direct call, and a two-shard commit.
	devs := make([]pmem.Device, 2)
	for i := range devs {
		if devs[i], err = pmem.New(core.DeviceConfig(pmem.StrictMode, 1, floorOpts()...)); err != nil {
			return err
		}
	}
	st, err := shard.NewPersistent(devs, false, false, shard.NewHash(2), floorOpts()...)
	if err != nil {
		return err
	}
	keys := []uint64{0, 1}
	for st.ShardFor(keys[1]) == st.ShardFor(keys[0]) {
		keys[1]++
	}
	s0, s1 := st.ShardFor(keys[0]), st.ShardFor(keys[1])
	routed, direct := floorPairNs(d,
		func() { st.Update(keys[0], store) },
		func() { st.Engine(s0).Update(store) })
	out.set("shard.route_ns", routed-direct, "ns")
	var crossErr error
	out.set("shard.cross_update_us", floorNs(d, func() {
		_, err := st.UpdateCross(keys, func(tx tm.MultiTx) uint64 {
			tx.Store(s0, word, tx.Load(s0, word)+1)
			tx.Store(s1, word, tx.Load(s1, word)+1)
			return 0
		})
		if err != nil {
			crossErr = err
		}
	})/1e3, "us")
	if crossErr != nil {
		return fmt.Errorf("cross-shard floor: %w", crossErr)
	}

	// containers: the three operations txn-wf is made of, alone.
	hs := containers.NewHashSet(wf, 0)
	tmap := containers.NewTreeMap(wf, 1)
	q := containers.NewQueue(wf, 2)
	for k := uint64(0); k < 1024; k++ {
		hs.Add(k * 2)
		tmap.Put(k, k)
	}
	q.Enqueue(1)
	var k uint64
	var odd [1024]bool // which odd keys the toggles have put into the set
	out.set("containers.hashset_toggle_ns", floorNs(d, func() {
		k = (k + 1) % 1024
		if odd[k] {
			hs.Remove(k*2 + 1)
		} else {
			hs.Add(k*2 + 1)
		}
		odd[k] = !odd[k]
	}), "ns")
	out.set("containers.treemap_get_ns", floorNs(d, func() {
		k = (k + 1) % 1024
		v, _ := tmap.Get(k)
		sink += v
	}), "ns")
	out.set("containers.queue_pair_ns", floorNs(d, func() {
		wf.Update(func(tx tm.Tx) uint64 {
			q.EnqueueTx(tx, 1)
			v, _ := q.DequeueTx(tx)
			return v
		})
	}), "ns")

	// kvserver: the socket and RESP floor, no engine behind the command, on
	// one P like the KV workloads it is the floor of.
	procs := runtime.GOMAXPROCS(1)
	rtt, pipelined, err := pingFloor(lf, d)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	out.set("kvserver.ping_rtt_us", rtt/1e3, "us")
	out.set("kvserver.ping_pipelined_ns", pipelined, "ns")
	if sink == 1 {
		out.note("floor sink %d", sink) // keeps the loops' results observable
	}
	return nil
}

// pingFloor serves PING from a server over eng and times it at depth 1
// and depth 32.
func pingFloor(eng *core.Engine, d time.Duration) (rttNs, pipelinedNs float64, err error) {
	sys := &kvSys{ix: kvserver.NewIndex(1)}
	sys.srv = kvserver.NewServer(kvserver.EngineBackend{E: eng}, sys.ix, nil)
	if err := sys.srv.Init(); err != nil {
		return 0, 0, err
	}
	if err := sys.serve(); err != nil {
		return 0, 0, err
	}
	defer sys.stopServer()
	for _, depth := range []int{1, 32} {
		cl, err := dialKV(sys.addr, depth, newKVModel(1, 1, 1), 1)
		if err != nil {
			return 0, 0, err
		}
		var loopErr error
		ns := floorNs(d, func() {
			cl.pend = cl.pend[:0]
			for i := 0; i < depth; i++ {
				cl.queuePing()
			}
			if err := cl.submit(); err != nil {
				loopErr = err
				return
			}
			for range cl.pend {
				if err := cl.recvSimple("+PONG", "PING"); err != nil {
					loopErr = err
					return
				}
			}
		})
		cl.close()
		if loopErr != nil || cl.failed > 0 {
			return 0, 0, fmt.Errorf("ping floor: %v %s", loopErr, cl.firstFailure)
		}
		if depth == 1 {
			rttNs = ns
		} else {
			pipelinedNs = ns / float64(depth)
		}
	}
	return rttNs, pipelinedNs, nil
}
