package main

// txn-wf: no sockets. One goroutine per CPU calls the containers API
// directly on the wait-free persistent engine: the only workload with real
// engine contention (every update transaction serialises on curTx and is
// helped by its peers), and the bypass workload for any server- or
// device-side change.
//
// Goroutine g is the sole writer — and, for checked reads, the sole reader
// — of the keys k with k mod G = g, and owns one queue. Its model of those
// keys is therefore exact, and every return value is checked against it.

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"onefile/containers"
	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

const (
	// txnKeySpace keys exist; the half the seed selects is preloaded
	// (65,536 in expectation) into both the hash set and the tree map, and
	// toggling keeps occupancy at a half: the structures' sizes are the
	// same in the first window and the last.
	txnKeySpace  = 1 << 17
	txnHeapWords = 1 << 21
	txnMaxStores = 1 << 15 // the hash set's last resize is one ~17k-store transaction
	txnMaxThread = 16
	txnQueueLen  = 16 // items resident in each goroutine's queue
	// Mix, in percent of operations; the remaining 2 % are range scans.
	txnReadPct   = 48
	txnUpdatePct = 50
	txnScanSpan  = 100 // keys covered by a Range: about 50 entries at half occupancy
	txnScanMax   = 50
	txnPreload   = 64 // keys per preload transaction

	rootHashSet = 0
	rootTreeMap = 1
	rootQueue0  = 2
)

func txnEngineOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(txnHeapWords),
		tm.WithMaxThreads(txnMaxThread),
		tm.WithMaxStores(txnMaxStores),
	}
}

// txnSys is the system under test: device, engine, containers.
type txnSys struct {
	raw pmem.Device
	dev pmem.Device
	eng *core.Engine
	e   tm.Engine // eng, or eng behind the trace decorator
	tr  *tracer
	hs  *containers.HashSet
	tmp *containers.TreeMap
	qs  []*containers.Queue
}

// txnWorker is one load goroutine: its share of the model, its queue, its
// random stream and its tallies.
type txnWorker struct {
	g, stride int
	sys       *txnSys
	rng       *rand.Rand
	inSet     []bool   // hash-set membership of key g + i*stride
	inMap     []bool   // tree-map presence
	mapVal    []uint64 // tree-map value where present
	queue     [txnQueueLen]uint64
	qHead     int
	qNext     uint64

	attempted, failed uint64
	firstFailure      string
}

func (w *txnWorker) fail(format string, args ...any) {
	w.failed++
	if w.firstFailure == "" {
		w.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (w *txnWorker) ownKeys() int { return len(w.inSet) }

func (w *txnWorker) key(i int) uint64 { return uint64(w.g + i*w.stride) }

// preloaded says whether the seed puts key k into the initial state.
func preloaded(seed, k uint64) bool {
	z := (seed ^ k) * 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	return (z>>40)&1 == 1
}

func initialValue(k uint64) uint64 { return k*2 + 1 }

// createTxn builds a fresh system and preloads it; workers get the
// matching model. This is what setup_s times.
func createTxn(seed uint64, workers []*txnWorker, tr *tracer) (*txnSys, error) {
	raw, err := pmem.New(core.DeviceConfig(pmem.StrictMode, int64(seed), txnEngineOpts()...))
	if err != nil {
		return nil, fmt.Errorf("create simulated device: %w", err)
	}
	s := &txnSys{raw: raw, dev: raw, tr: tr}
	if tr != nil {
		s.dev = &tracedDevice{Device: raw, t: tr}
	}
	if err := s.open(false, len(workers)); err != nil {
		return nil, err
	}
	for lo := uint64(0); lo < txnKeySpace; lo += txnPreload {
		s.e.Update(func(tx tm.Tx) uint64 {
			for k := lo; k < lo+txnPreload; k++ {
				if preloaded(seed, k) {
					s.hs.AddTx(tx, k)
					s.tmp.PutTx(tx, k, initialValue(k))
				}
			}
			return 0
		})
	}
	for _, w := range workers {
		w.sys = s
		for i := range w.inSet {
			k := w.key(i)
			w.inSet[i] = preloaded(seed, k)
			w.inMap[i] = w.inSet[i]
			w.mapVal[i] = initialValue(k)
		}
		w.qHead, w.qNext = 0, 0
		q := s.qs[w.g]
		s.e.Update(func(tx tm.Tx) uint64 {
			for i := 0; i < txnQueueLen; i++ {
				q.EnqueueTx(tx, w.queueValue(uint64(i)))
			}
			return 0
		})
		for i := range w.queue {
			w.queue[i] = w.queueValue(w.qNext)
			w.qNext++
		}
	}
	return s, nil
}

// queueValue is the n-th value goroutine g enqueues.
func (w *txnWorker) queueValue(n uint64) uint64 { return uint64(w.g)<<48 | n }

// open creates or re-attaches the engine and attaches the containers to
// their root slots.
func (s *txnSys) open(attach bool, workers int) error {
	eng, err := core.NewPersistentWF(s.dev, attach, txnEngineOpts()...)
	if err != nil {
		return fmt.Errorf("open engine (attach=%v): %w", attach, err)
	}
	s.eng, s.e = eng, eng
	if s.tr != nil {
		s.e = &tracedEngine{Engine: eng, small: eng, t: s.tr}
	}
	s.hs = containers.NewHashSet(s.e, rootHashSet)
	s.tmp = containers.NewTreeMap(s.e, rootTreeMap)
	s.qs = s.qs[:0]
	for g := 0; g < workers; g++ {
		s.qs = append(s.qs, containers.NewQueue(s.e, rootQueue0+g))
	}
	return nil
}

func (s *txnSys) close() error {
	s.eng.Close()
	return s.raw.Close()
}

// The operations. Wrong results are counted, not fatal.

func (w *txnWorker) readOp() {
	i := w.rng.IntN(w.ownKeys())
	k := w.key(i)
	if w.rng.IntN(10) < 3 {
		if got := w.sys.hs.Contains(k); got != w.inSet[i] {
			w.fail("HashSet.Contains(%d) = %v, model %v", k, got, w.inSet[i])
		}
		return
	}
	v, ok := w.sys.tmp.Get(k)
	if ok != w.inMap[i] || (ok && v != w.mapVal[i]) {
		w.fail("TreeMap.Get(%d) = %d, %v; model %d, %v", k, v, ok, w.mapVal[i], w.inMap[i])
	}
}

func (w *txnWorker) updateOp() {
	switch p := w.rng.IntN(100); {
	case p < 25:
		w.toggleSet(w.rng.IntN(w.ownKeys()))
	case p < 85:
		w.toggleMap(w.rng.IntN(w.ownKeys()))
	default:
		w.queuePair()
	}
}

func (w *txnWorker) toggleSet(i int) {
	k := w.key(i)
	var changed bool
	if w.inSet[i] {
		changed = w.sys.hs.Remove(k)
	} else {
		changed = w.sys.hs.Add(k)
	}
	if !changed {
		w.fail("HashSet toggle of %d (present=%v) changed nothing", k, w.inSet[i])
	}
	w.inSet[i] = !w.inSet[i]
}

func (w *txnWorker) toggleMap(i int) {
	k := w.key(i)
	if w.inMap[i] {
		prev, existed := w.sys.tmp.Delete(k)
		if !existed || prev != w.mapVal[i] {
			w.fail("TreeMap.Delete(%d) = %d, %v; model %d, true", k, prev, existed, w.mapVal[i])
		}
		w.inMap[i] = false
		return
	}
	v := w.rng.Uint64() >> 2
	if _, existed := w.sys.tmp.Put(k, v); existed {
		w.fail("TreeMap.Put(%d) replaced a key the model says is absent", k)
	}
	w.inMap[i], w.mapVal[i] = true, v
}

// queuePair enqueues one value and dequeues the oldest in one transaction.
func (w *txnWorker) queuePair() {
	q := w.sys.qs[w.g]
	in := w.queueValue(w.qNext)
	got := w.sys.e.Update(func(tx tm.Tx) uint64 {
		q.EnqueueTx(tx, in)
		v, _ := q.DequeueTx(tx)
		return v
	})
	if want := w.queue[w.qHead]; got != want {
		w.fail("queue %d dequeued %#x, model %#x", w.g, got, want)
	}
	w.queue[w.qHead] = in
	w.qHead = (w.qHead + 1) % txnQueueLen
	w.qNext++
}

// scanOp is a range query. Other goroutines toggle their keys under it, so
// only this goroutine's keys are checked — but those exactly: each one in
// the covered range is in the result if and only if the model has it.
func (w *txnWorker) scanOp() {
	lo := uint64(w.rng.IntN(txnKeySpace - txnScanSpan))
	hi := lo + txnScanSpan - 1
	got := w.sys.tmp.Range(lo, hi, txnScanMax)
	covered := hi
	if len(got) == txnScanMax {
		covered = got[len(got)-1].Key
	}
	ok := true
	j := 0
	for k := lo; k <= covered; k++ {
		for j < len(got) && got[j].Key < k {
			j++
		}
		present := j < len(got) && got[j].Key == k
		if int(k%uint64(w.stride)) != w.g {
			continue
		}
		i := int(k) / w.stride
		if present != w.inMap[i] || (present && got[j].Val != w.mapVal[i]) {
			ok = false
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key <= got[i-1].Key {
			ok = false
		}
	}
	if len(got) > 0 && (got[0].Key < lo || got[len(got)-1].Key > hi) {
		ok = false
	}
	if !ok {
		w.fail("TreeMap.Range(%d, %d) disagrees with the model on goroutine %d's keys", lo, hi, w.g)
	}
}

// step runs one operation of the mix and returns its latency class.
func (w *txnWorker) step() int {
	w.attempted++
	switch p := w.rng.IntN(100); {
	case p < txnReadPct:
		w.readOp()
		return classRead
	case p < txnReadPct+txnUpdatePct:
		w.updateOp()
		return classWrite
	}
	w.scanOp()
	return classScan
}

// load is the closed loop: the end of one operation is the start of the
// next, so the clock is read once per operation.
func (w *txnWorker) load(rec *recorder, base time.Time, start, end int64) {
	prev := int64(time.Since(base))
	for prev < end {
		class := w.step()
		now := int64(time.Since(base))
		rec.record(class, now-start, now-prev)
		prev = now
	}
}

// verifyAll checks the whole state against the workers' models: every key
// of both containers, their sizes, the tree's invariants, every queue.
func (s *txnSys) verifyAll(workers []*txnWorker) {
	setLen, mapLen := 0, 0
	for _, w := range workers {
		for i := range w.inSet {
			k := w.key(i)
			w.attempted += 2
			if got := s.hs.Contains(k); got != w.inSet[i] {
				w.fail("verify: HashSet.Contains(%d) = %v, model %v", k, got, w.inSet[i])
			}
			v, ok := s.tmp.Get(k)
			if ok != w.inMap[i] || (ok && v != w.mapVal[i]) {
				w.fail("verify: TreeMap.Get(%d) = %d, %v; model %d, %v", k, v, ok, w.mapVal[i], w.inMap[i])
			}
			if w.inSet[i] {
				setLen++
			}
			if w.inMap[i] {
				mapLen++
			}
		}
		w.attempted++
		got := s.qs[w.g].Snapshot(txnQueueLen + 1)
		good := len(got) == txnQueueLen
		for i := 0; good && i < txnQueueLen; i++ {
			good = got[i] == w.queue[(w.qHead+i)%txnQueueLen]
		}
		if !good {
			w.fail("verify: queue %d holds %x, model disagrees", w.g, got)
		}
	}
	w := workers[0]
	w.attempted += 3
	if n := s.hs.Len(); n != setLen {
		w.fail("verify: HashSet.Len() = %d, model %d", n, setLen)
	}
	if n := s.tmp.Len(); n != mapLen {
		w.fail("verify: TreeMap.Len() = %d, model %d", n, mapLen)
	}
	if err := s.tmp.CheckInvariants(); err != nil {
		w.fail("verify: TreeMap.CheckInvariants: %v", err)
	}
}

func runTxn(opt *options) (*outcome, error) {
	out := newOutcome()
	base := time.Now()
	var tr *tracer
	if opt.trace {
		tr = newTracer(base)
	}
	nWorkers := min(runtime.NumCPU(), 8)
	workers := make([]*txnWorker, nWorkers)
	for g := range workers {
		own := (txnKeySpace - g + nWorkers - 1) / nWorkers
		workers[g] = &txnWorker{
			g: g, stride: nWorkers,
			rng:   rand.New(rand.NewPCG(opt.seed, uint64(g)+1)),
			inSet: make([]bool, own), inMap: make([]bool, own), mapVal: make([]uint64, own),
		}
	}
	plan := newPhasePlan(opt, nWorkers)
	tally := func() {
		for _, w := range workers {
			out.count(&w.attempted, &w.failed, w.firstFailure)
		}
	}

	heapBefore := liveHeap()
	var sys *txnSys
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
		if sys, err = createTxn(opt.seed, workers, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { sys.close() }()
	out.set("setup_s", median(setups), "s")
	out.note("setup_s: each of the %d creations %.4f", setupReps, setups)
	items := 0
	for _, w := range workers {
		for i := range w.inSet {
			if w.inSet[i] {
				items += 2 // one hash-set entry, one tree-map entry
			}
		}
	}
	out.set("mem_bytes_per_item", (liveHeap()-heapBefore)/float64(items), "B")
	out.note("%d goroutines, %d preloaded items", nWorkers, items)

	// One crash and recovery: fresh acknowledged updates, the crash that
	// must keep them, and a full-state check of what came back.
	var recovers, attaches []float64
	recoverOnce := func() error {
		for i := 0; i < burstSets; i++ {
			w := workers[i%nWorkers]
			w.attempted++
			w.updateOp()
		}
		sys.eng.Close()
		runtime.GC() // start every cycle from the same heap
		start := time.Now()
		sys.raw.Crash()
		attachStart := time.Now()
		if err := sys.open(true, nWorkers); err != nil {
			return err
		}
		attaches = append(attaches, time.Since(attachStart).Seconds())
		sys.hs.Contains(0)
		recovers = append(recovers, time.Since(start).Seconds())
		sys.verifyAll(workers)
		return nil
	}

	// The first half of the recoveries, on the preloaded containers.
	for len(recovers) < recoverCycles/2 {
		if err := recoverOnce(); err != nil {
			tally()
			return out, err
		}
	}

	probe := newLayerProbe(tr, sys.eng, sys.raw)
	if probe != nil {
		// A fixed number of operations by one goroutine, from a stream of
		// their own, on containers only seeded operations have touched:
		// without helpers the persistence counts of this pass repeat exactly.
		w := workers[0]
		stream := w.rng
		w.rng = rand.New(rand.NewPCG(opt.seed, countedStream))
		probe.beginCounted()
		for i := 0; i < countedOps; i++ {
			w.step()
		}
		probe.endCounted()
		w.rng = stream
	}
	probe.start()
	for i := range plan.segs {
		seg := &plan.segs[i]
		probe.setTracing(seg.traced)
		start := int64(time.Since(base)) + int64(seg.warm)
		var wg sync.WaitGroup
		for g, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.load(seg.recs[g], base, start, start+int64(seg.dur))
			}()
		}
		wg.Wait()
	}
	probe.stop()
	plan.report(out, opt.trace)
	sys.verifyAll(workers)

	// The second half of the recoveries, on the containers the run left.
	for len(recovers) < recoverCycles {
		if err := recoverOnce(); err != nil {
			tally()
			return out, err
		}
	}
	tally()
	reportRecovery(out, recovers)

	if tr != nil {
		probe.report(out, plan)
		out.set("core.attach_ms_per_mword", firstQuartile(attaches)*1e3/(txnHeapWords/1e6), "ms")
		if commits := float64(probe.eng.Commits); commits > 0 {
			self := tr.sumNs(spEngineUpdate) - tr.sumNs(spTxnUpdate) - probe.devNs()
			out.set("core.commit_self_us", self/commits/1e3, "us")
		}
		if err := tr.write(filepath.Join(opt.out, "trace.json")); err != nil {
			return out, err
		}
	}
	return out, nil
}
