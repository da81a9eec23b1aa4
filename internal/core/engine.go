// Package core implements OneFile, the wait-free persistent transactional
// memory of the paper, in its four variants:
//
//   - NewLF: the lock-free software transactional memory (volatile),
//   - NewWF: the wait-free STM (volatile),
//   - NewPersistentLF: the lock-free PTM on an emulated NVM device,
//   - NewPersistentWF: the wait-free PTM.
//
// OneFile is a redo-log, word-based TM with no read-set. All update
// transactions serialize on a single word, curTx, that packs a
// monotonically increasing sequence number with the committing thread
// slot's index. Each slot exposes its write-set (and, in the persistent
// variants, keeps it in NVM), so that any thread can help apply the
// currently committed transaction — one seq-guarded DCAS per written word —
// which yields lock-free progress; the wait-free variants additionally
// publish whole operations so that helping threads execute them on the
// caller's behalf (§III-E).
//
// The paper has one update protocol — the ten steps of §III-B; the
// wait-free variant only changes who runs the body — and so does this
// package: every update entry (Update, UpdateExclusive, AsyncUpdate,
// BatchUpdate, UpdatePublished) is an adapter over one staged pipeline,
// admit → run the body or bodies into the slot's write-set → commit → apply
// → persist → resolve (txn.go, DESIGN.md §4). A batch is N bodies in the run
// stage (combine.go) and a wait-free aggregate is the same round with the
// published operations as its bodies (waitfree.go). A wait-free update
// first runs up to fastRounds rounds of its own body unpublished, and
// publishes when they lose or another operation is published (Kogan and
// Petrank's fast-path-slow-path). Recovery is the paper's null recovery
// (§III-D): durable words never run ahead of the durable curTx, so attach
// has one action, finishing a pending curTx through the helping path.
//
// Hot-path disciplines (beyond the paper, for the Go platform):
//
//   - Flat TM words. The heap is one pointer-free slab of 16-byte
//     {value, sequence} words (package dcas) changed by a hardware
//     double-word CAS where the platform has one; loads are two atomic
//     loads plus the sequence check the algorithm already performs (see
//     DESIGN.md §2). Steady-state transactions allocate nothing per word.
//   - Flush coalescing. The apply phase persists one pwb per modified
//     pair-region cache line (4 TM words) instead of one per word — the
//     paper's §IV accounting.
//   - False-sharing avoidance. Contended per-slot words (claim flag,
//     request/numStores, operation slot, stats) each sit on their own
//     cache line, as do curTx and the claim hint.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"onefile/internal/dcas"
	"onefile/internal/he"
	"onefile/internal/pmem"
	"onefile/internal/talloc"
	"onefile/internal/tm"
)

// Transaction identifiers pack seq<<tidBits | tid (§III-A).
const (
	tidBits = 10
	tidMask = (1 << tidBits) - 1
)

// A persistent engine stamps the address word of every redo-log entry that
// lies beyond the log's first cache line with the low bits of the sequence
// its transaction is trying to commit, above the addrBits a heap index can
// occupy, and helpApply skips entries whose stamp is not the replayed
// transaction's.
//
// What that closes: a request is closed by a CAS nobody flushes, so a slot's
// DURABLE request still reads open — and equal to the durable curTx — while
// the slot is already writing its next transaction's log over the old one.
// A crash between that log's flushes and the drain that orders them can
// persist any subset of its lines; if the first line is not among them,
// recovery replays transaction k from a log partly overwritten by attempt
// k+1, applying k+1's stores at sequence k — a torn state. (Every word of k
// is already durable by then: its request closed only after the flush and
// drain of its apply phase, so skipping the overwritten entries loses
// nothing.) The first line holds request, numStores and headEntries entries
// and persists as a unit, so those entries always belong to the request
// beside them and carry no stamp — which keeps writeSet.publish's
// unchanged-address shortcut for the smallest write-sets. A foreign entry in
// a replayed log is always an attempt at exactly k+1: whoever applies k+1,
// committer or helper, first drains curTx = k+1 durable, so it is durable
// before k+1's request closes, and no slot writes a log for k+2 until it has
// seen that request closed or closed it itself — with any line of a k+2 log
// durable, recovery replays k+1, not k. So any stamp width tells them apart;
// 24 bits is margin. The volatile engines have no replay and stamp nothing.
const (
	headEntries = (pmem.LineWords - 2) / 2
	addrBits    = 40
	addrMask    = 1<<addrBits - 1
	stampMask   = 1<<(64-addrBits) - 1
)

func makeTx(seq uint64, tid int) uint64 { return seq<<tidBits | uint64(tid) }
func seqOf(txid uint64) uint64          { return txid >> tidBits }
func tidOf(txid uint64) int             { return int(txid & tidMask) }

// Device raw-region layout (persistent variants). The header is one cache
// line: the magic word, then the geometry format laid the device out with —
// HeapWords, MaxThreads, MaxStores, in that order — which attach holds its own
// configuration to, because every slot's log offset and the extent of the walk
// follow from the three.
const (
	hdrWords    = pmem.LineWords // raw words reserved for the header
	hdrMagic    = 0              // raw offset of the magic word
	hdrGeometry = 1              // raw offset of the first of the three geometry words
	magicVal    = 0x0F11E_60_0001
)

// geometry returns what format records at hdrGeometry and attach compares.
func geometry(cfg tm.Config) [3]uint64 {
	return [3]uint64{uint64(cfg.HeapWords), uint64(cfg.MaxThreads), uint64(cfg.MaxStores)}
}

// abortSignal is the panic value used to unwind an aborted transaction body
// (the paper's AbortedTxException). It never escapes the engine.
type abortSignal struct{}

// flushLine is the scratch of one coalesced pair-line flush. It lives in the
// slot because the arrays are handed to the pmem.Device interface by
// address, which would move stack copies to the heap on every flush.
type flushLine struct {
	idx  [pmem.PairLineWords]int
	vals [pmem.PairLineWords]uint64
	seqs [pmem.PairLineWords]uint64
}

// slotStats are one slot's operation counters: owner-written (uncontended),
// summed by Engine.Stats.
type slotStats struct {
	commits            atomic.Uint64
	aborts             atomic.Uint64
	readCommits        atomic.Uint64
	readAborts         atomic.Uint64
	helps              atomic.Uint64
	cas                atomic.Uint64
	dcas               atomic.Uint64
	aggregated         atomic.Uint64
	readsBeforePending atomic.Uint64
}

// slot is one thread slot: registration state, the slot's write-set/redo
// log, and the wait-free operation publication point. Owner-private fields
// come first; each shared-hot atomic below sits on its own cache line so
// helpers polling one slot never invalidate a neighbour's.
type slot struct {
	id int

	// request holds the slot's transaction identifier while its committed
	// write-set still needs applying ("open"), and that identifier plus
	// one once applied ("closed"). §III-A.
	request *atomic.Uint64
	logNum  *atomic.Uint64  // shared numStores
	logEnt  []atomic.Uint64 // shared (address, value) entry pairs
	logOff  int             // device raw offset of the slot's log region; -1 when volatile

	ws      writeSet
	helpBuf []uint64 // scratch for copying another slot's write-set

	flushAddrs []uint64 // scratch for sorting dirty words by cache line
	line       flushLine

	// Reusable transaction handles (their address escapes through the
	// tm.Tx interface, so per-transaction values would heap-allocate).
	utx uTx
	rtx rTx

	opTag uint64 // owner-private monotonic tag for this slot's ops

	_ [64]byte
	// claimed is CASed by every acquiring thread.
	claimed atomic.Uint32
	_       [60]byte
	// helpTicket deduplicates helpers of this slot's committed
	// transactions: it holds the highest txid whose apply phase some
	// thread has claimed (the owner claims at commit with a store, helpers
	// by CAS; see claimHelp). Values only grow.
	helpTicket atomic.Uint64
	_          [56]byte
	// Wait-free operation publication (§III-E), polled by every aggregate.
	opSlot atomic.Pointer[opDesc]
	_      [56]byte
	// localReq backs request/logNum for the volatile engines; helpers and
	// pending() poll it from every thread.
	localReq [2]atomic.Uint64
	_        [48]byte
	st       slotStats
	_        [64]byte
}

// opDesc is a published wait-free operation: the Go closure standing in for
// the paper's std::function, plus the monotonic tag used for exactly-once
// execution and the hazard-era lifetime bookkeeping of §IV-B.
type opDesc struct {
	fn    func(tm.Tx) uint64
	tag   uint64
	birth uint64 // curTx sequence when published (hazard era birth)

	// fail parks the panic value of a terminally failed execution until
	// the submitter re-raises it (updateWF). Racing executions may each
	// store one — a body can panic differently per run — but any stored
	// value is the genuine outcome of one execution, and the store
	// sequenced before the commit that tagged opFailBit is visible to the
	// submitter through that commit's apply phase.
	fail atomic.Pointer[any]

	// reclaimed is set by the hazard-era free callback. Under Go's GC the
	// object stays valid, so this flag turns what would be a
	// use-after-free in C++ into a detectable protocol violation.
	reclaimed atomic.Bool
}

// Engine is a OneFile transactional-memory engine. Create one with NewLF,
// NewWF, NewPersistentLF or NewPersistentWF; all methods are safe for
// concurrent use by up to MaxThreads goroutines at a time.
type Engine struct {
	cfg      tm.Config
	waitFree bool
	dev      pmem.Device // nil for the volatile variants
	stamps   uint64      // stampMask on a persistent engine, 0 on a volatile one

	words []dcas.TMWord // the transactional heap: one TM word per tm.Ptr

	slots []slot

	eras *he.Eras // hazard-era domain: reclamation of published closures (§IV-B)

	curTxImg    int    // pair-region index of curTx's persistent image
	dynBase     tm.Ptr // first dynamically allocatable heap word
	resultsBase tm.Ptr // first wait-free result word

	heViolations atomic.Uint64
	closed       atomic.Bool

	lastRecovery RecoveryReport // what attach did; zero on a formatted engine

	// cm is the contention-management layer (contention.go): parked slot
	// admission and the helper deduplication budget.
	cm contention

	// comb is the batch entries' state (combine.go): AsyncUpdate and
	// BatchUpdate run several operations as one engine transaction.
	comb combiner

	// obsv is the attached observability sink (obs.go), nil when nothing
	// is observing. The unobserved hot path pays exactly one load of this
	// pointer per transaction.
	obsv atomic.Pointer[EngineObs]

	// excl is the exclusivity gate (exclusive.go): the prepare/decide
	// hook the sharded store's cross-shard commit protocol runs on. The
	// ungated hot path pays one load of excl.gate per acquire.
	excl exclusive

	// The globally contended words, each padded onto its own line.
	_     [64]byte
	curTx atomic.Uint64
	_     [56]byte
	// published counts the operations between publication and
	// unpublication (updateWF). A wait-free update runs unpublished rounds
	// only while it reads zero (update).
	published atomic.Int32
	_         [60]byte
	claimHint atomic.Uint32
	_         [60]byte
}

var (
	_ tm.Engine     = (*Engine)(nil)
	_ tm.Persistent = (*Engine)(nil)
)

// Errors returned by the persistent constructors.
var (
	// ErrBadDevice reports a device too small for the configuration, or
	// formatted with another one.
	ErrBadDevice = errors.New("core: device does not fit configuration")
	// ErrNotFormatted reports attaching to a device with no valid heap.
	ErrNotFormatted = errors.New("core: device holds no OneFile heap (bad magic)")
	// ErrCorrupt reports a persistent image violating a recovery invariant.
	ErrCorrupt = errors.New("core: persistent image is corrupt")
)

// slotLogStride returns the per-slot raw log size (request + numStores +
// entries), line-aligned so slots never share cache lines.
func slotLogStride(maxStores int) int {
	n := 2 + 2*maxStores
	return (n + pmem.LineWords - 1) / pmem.LineWords * pmem.LineWords
}

// DeviceConfig returns the pmem configuration required by a persistent
// engine created with the same options.
func DeviceConfig(mode pmem.Mode, seed int64, opts ...tm.Option) pmem.Config {
	cfg := tm.Apply(opts)
	return pmem.Config{
		RawWords:  hdrWords + cfg.MaxThreads*slotLogStride(cfg.MaxStores),
		PairWords: cfg.HeapWords + 1,
		Mode:      mode,
		MaxSlots:  cfg.MaxThreads,
		Seed:      seed,
	}
}

// NewLF creates the lock-free OneFile STM (volatile memory).
func NewLF(opts ...tm.Option) *Engine {
	e, err := newEngine(tm.Apply(opts), false, nil, false)
	if err != nil {
		panic(err) // unreachable without a device
	}
	return e
}

// NewWF creates the bounded wait-free OneFile STM (volatile memory).
func NewWF(opts ...tm.Option) *Engine {
	e, err := newEngine(tm.Apply(opts), true, nil, false)
	if err != nil {
		panic(err) // unreachable without a device
	}
	return e
}

// NewPersistentLF creates (attach=false) or re-attaches to (attach=true)
// the lock-free OneFile PTM on dev. The options must match the ones the
// device was sized with (see DeviceConfig).
func NewPersistentLF(dev pmem.Device, attach bool, opts ...tm.Option) (*Engine, error) {
	return newEngine(tm.Apply(opts), false, dev, attach)
}

// NewPersistentWF creates or re-attaches to the wait-free OneFile PTM.
func NewPersistentWF(dev pmem.Device, attach bool, opts ...tm.Option) (*Engine, error) {
	return newEngine(tm.Apply(opts), true, dev, attach)
}

func newEngine(cfg tm.Config, waitFree bool, dev pmem.Device, attach bool) (*Engine, error) {
	e := &Engine{
		cfg:      cfg,
		waitFree: waitFree,
		dev:      dev,
		words:    dcas.NewSlab(cfg.HeapWords),
		slots:    make([]slot, cfg.MaxThreads),
		eras:     he.New(cfg.MaxThreads),
		curTxImg: cfg.HeapWords,
	}
	if dev != nil {
		e.stamps = stampMask
	}
	e.cm.init(runtime.GOMAXPROCS(0))
	e.excl.init()
	e.resultsBase = talloc.MetaBase + talloc.MetaWords
	e.dynBase = e.resultsBase + tm.Ptr(2*cfg.MaxThreads)
	if int(e.dynBase)+64 > cfg.HeapWords || uint64(cfg.HeapWords) > addrMask {
		return nil, fmt.Errorf("core: heap of %d words too small for %d thread slots", cfg.HeapWords, cfg.MaxThreads)
	}
	if dev != nil {
		want := DeviceConfig(dev.Mode(), 0, func(c *tm.Config) { *c = cfg })
		if dev.RawWords() < want.RawWords || dev.PairWords() < want.PairWords {
			return nil, ErrBadDevice
		}
	}

	stride := slotLogStride(cfg.MaxStores)
	for i := range e.slots {
		s := &e.slots[i]
		s.id = i
		if dev != nil {
			s.logOff = hdrWords + i*stride
			region := dev.RawRegion(s.logOff, 2+2*cfg.MaxStores)
			s.request = &region[0]
			s.logNum = &region[1]
			s.logEnt = region[2:]
		} else {
			s.logOff = -1
			s.request = &s.localReq[0]
			s.logNum = &s.localReq[1]
			s.logEnt = make([]atomic.Uint64, 2*cfg.MaxStores)
		}
		s.ws = newWriteSet(s.logNum, s.logEnt, e.MaxStores())
		s.helpBuf = make([]uint64, 0)
		s.utx = uTx{e: e, s: s}
		s.rtx = rTx{e: e}
	}

	if attach {
		if err := e.attach(); err != nil {
			return nil, err
		}
		return e, nil
	}
	e.format()
	return e, nil
}

// format initialises a fresh heap (single-threaded).
func (e *Engine) format() {
	store := func(p tm.Ptr, v uint64) {
		e.words[p].Store(v, 0)
		if e.dev != nil {
			e.dev.FlushPair(0, int(p), v, 0)
		}
	}
	talloc.InitDirect(store, e.dynBase, e.cfg.HeapWords)
	init0 := makeTx(1, 0)
	e.curTx.Store(init0)
	if e.dev != nil {
		e.dev.FlushPair(0, e.curTxImg, init0, init0)
		e.dev.RawStore(hdrMagic, magicVal)
		for i, v := range geometry(e.cfg) {
			e.dev.RawStore(hdrGeometry+i, v)
		}
		e.dev.Flush(0, hdrMagic, 1) // one pwb: the header is one line
		e.dev.Fence(0)
		e.dev.ResetStats() // formatting traffic is not part of any experiment
	}
}

// RecoveryReport says what the attach that built an engine found and did.
type RecoveryReport struct {
	Duration    time.Duration // of attach itself; allocating the engine is not in it
	HeapWords   int           // words of image the walk read and checked
	WordsLoaded int           // the non-zero ones among them, stored into the heap
	Ranges      int           // goroutines the walk was split over
	// Pending: curTx's request was durably open, so null recovery's one
	// action ran — the helping path applied transaction PendingSeq — and
	// skipped StaleLogEntriesSkipped entries of its log that a later attempt
	// had overwritten (headEntries, above). After a crash it nearly always
	// is: the CAS that closes a request is never flushed.
	Pending                bool
	PendingSeq             uint64
	StaleLogEntriesSkipped int
}

// LastRecovery returns the report of the attach that built e: the zero
// report if e formatted its device, or has none.
func (e *Engine) LastRecovery() RecoveryReport { return e.lastRecovery }

// attach rebuilds the volatile state from the device's persistent image and
// performs null recovery (§III-D): if the last committed transaction's
// request is still open, apply and close it. The device must be quiescent,
// with Crash() already invoked if a failure occurred.
func (e *Engine) attach() error {
	start := time.Now()
	if e.dev == nil {
		return errors.New("core: attach requires a device")
	}
	if e.dev.ImageRaw(hdrMagic) != magicVal {
		return ErrNotFormatted
	}
	var formatted [3]uint64
	for i := range formatted {
		formatted[i] = e.dev.ImageRaw(hdrGeometry + i)
	}
	// All zero is an image from before format recorded its geometry: taken
	// on trust, as it always was.
	if want := geometry(e.cfg); formatted != want && formatted != [3]uint64{} {
		return fmt.Errorf("%w: formatted with HeapWords=%d MaxThreads=%d MaxStores=%d, opened with HeapWords=%d MaxThreads=%d MaxStores=%d",
			ErrBadDevice, formatted[0], formatted[1], formatted[2], want[0], want[1], want[2])
	}
	cur, _ := e.dev.ImagePair(e.curTxImg)
	if cur == 0 {
		return ErrCorrupt
	}
	// What pending and helpApply index with, whatever the header says.
	if tidOf(cur) >= len(e.slots) {
		return fmt.Errorf("%w: curTx names thread slot %d of %d", ErrCorrupt, tidOf(cur), len(e.slots))
	}
	if n := e.slots[tidOf(cur)].logNum.Load(); n > uint64(e.cfg.MaxStores) {
		return fmt.Errorf("%w: slot %d logs %d stores, capacity %d", ErrCorrupt, tidOf(cur), n, e.cfg.MaxStores)
	}
	e.curTx.Store(cur)
	rep := RecoveryReport{HeapWords: e.cfg.HeapWords}
	if err := e.loadImage(seqOf(cur), &rep); err != nil {
		return err
	}
	if e.pending(cur) {
		// Null recovery: the regular helping path finishes the last
		// committed transaction if its request is still open. Stale open
		// requests of transactions that never became durable fail the
		// identifier match and are ignored, exactly as during normal
		// execution.
		rep.Pending, rep.PendingSeq = true, seqOf(cur)
		rep.StaleLogEntriesSkipped = e.helpApply(cur, &e.slots[0])
	}
	// Resume each slot's operation-tag counter from its durable tag word:
	// a fresh counter would re-issue tags the old heap already marked
	// done, and opResult would return a stale result without executing
	// the new operation.
	for i := range e.slots {
		_, tagW := e.resultWord(i)
		val, _ := e.words[tagW].Load()
		e.slots[i].opTag = val &^ opFailBit
	}
	rep.Duration = time.Since(start)
	e.lastRecovery = rep
	return nil
}

// loadImage is attach's walk: one pass over the device's pair image, read in
// place, straight into the heap. Every word's durable sequence is held to
// curSeq; zero words are not stored, so a fresh slab's untouched pages stay
// untouched. The walk is split into contiguous, line-aligned ranges, one per
// P, the first on this goroutine: the image is read-only while the device is
// quiescent, the ranges of the slab are disjoint, and the join below orders
// every store before anything attach does next. It reports the number of
// words stored and of ranges used in rep; if words are beyond curSeq, the
// error names the lowest one, whichever goroutine found it.
func (e *Engine) loadImage(curSeq uint64, rep *RecoveryReport) error {
	pairs := e.dev.ImagePairs(0, e.cfg.HeapWords)
	procs := runtime.GOMAXPROCS(0)
	per := (len(pairs) + procs - 1) / procs
	per = (per + pmem.PairLineWords - 1) / pmem.PairLineWords * pmem.PairLineWords
	ranges := (len(pairs) + per - 1) / per
	type result struct{ loaded, bad int }
	res := make([]result, ranges)
	walk := func(r int) {
		lo, hi := r*per, min((r+1)*per, len(pairs))
		res[r].loaded, res[r].bad = e.loadRange(pairs[lo:hi], lo, curSeq)
	}
	var wg sync.WaitGroup
	for r := 1; r < ranges; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walk(r)
		}()
	}
	walk(0) // the whole walk, inline, when there is one P
	wg.Wait()
	for r := range res {
		if bad := res[r].bad; bad >= 0 {
			// The commit protocol makes curTx durable before any word of
			// its sequence, so no image it wrote looks like this — and an
			// engine built on one would abort every load of the word.
			return fmt.Errorf("%w: heap word %d is durable at sequence %d, beyond the durable curTx sequence %d",
				ErrCorrupt, bad, pairs[bad].Seq, curSeq)
		}
		rep.WordsLoaded += res[r].loaded
	}
	rep.Ranges = ranges
	return nil
}

// loadRange stores the non-zero words of pairs, the image of heap words
// [lo, lo+len(pairs)), into the heap. It stops at the first word whose
// sequence is beyond curSeq and returns its index in bad, -1 if there is none.
func (e *Engine) loadRange(pairs []pmem.Pair, lo int, curSeq uint64) (loaded, bad int) {
	words := e.words[lo : lo+len(pairs)]
	for i, p := range pairs {
		if p.Seq > curSeq {
			return loaded, lo + i
		}
		if p.Val != 0 || p.Seq != 0 {
			words[i].Store(p.Val, p.Seq)
			loaded++
		}
	}
	return loaded, -1
}

// Name implements tm.Engine.
func (e *Engine) Name() string {
	switch {
	case e.dev == nil && !e.waitFree:
		return "OF-LF"
	case e.dev == nil && e.waitFree:
		return "OF-WF"
	case !e.waitFree:
		return "OF-LF-PTM"
	default:
		return "OF-WF-PTM"
	}
}

// Stats implements tm.Engine: the sum of the per-slot counters.
func (e *Engine) Stats() tm.Stats {
	var s tm.Stats
	for i := range e.slots {
		st := &e.slots[i].st
		s.Commits += st.commits.Load()
		s.Aborts += st.aborts.Load()
		s.ReadCommits += st.readCommits.Load()
		s.ReadAborts += st.readAborts.Load()
		s.Helps += st.helps.Load()
		s.CAS += st.cas.Load()
		s.DCAS += st.dcas.Load()
		s.AggregatedOp += st.aggregated.Load()
		s.ReadsBeforePending += st.readsBeforePending.Load()
	}
	s.Batches = e.comb.batches.Load()
	s.BatchedOps = e.comb.batchedOps.Load()
	if e.dev != nil {
		d := e.dev.Stats()
		s.Pwb, s.Pfence, s.Pdrain = d.Pwb, d.Pfence, d.Pdrain
	}
	return s
}

// HEViolations returns how often a hazard-era-protected operation
// descriptor was observed after reclamation. It must always be zero; tests
// assert it.
func (e *Engine) HEViolations() uint64 { return e.heViolations.Load() }

// Eras exposes the engine's hazard-era domain (test aid).
func (e *Engine) Eras() *he.Eras { return e.eras }

// DynBase returns the first dynamically allocatable heap word (audit aid).
func (e *Engine) DynBase() tm.Ptr { return e.dynBase }

// Close implements tm.Engine. The engine must be idle. Transactions begun
// after Close panic with tm.ErrEngineClosed (acquire checks the flag, and
// the wake-all empties the parking list so no goroutine sleeps forever on a
// slot that will never be released).
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.wakeAll()
	// Wake acquirers parked on the exclusivity gate (exclusive.go): they
	// re-check closed and fail fast.
	e.gateBroadcast()
	return nil
}

// Recover implements tm.Persistent for an already-attached engine: it
// re-runs null recovery. New engines attach with NewPersistent*(dev, true).
func (e *Engine) Recover() error {
	if e.dev == nil {
		return errors.New("core: volatile engine has nothing to recover")
	}
	cur := e.curTx.Load()
	if e.pending(cur) {
		e.helpApply(cur, &e.slots[0])
	}
	return nil
}

// acquire claims a thread slot — MaxThreads acts as a concurrency throttle —
// and is the pipeline's one admission. The common case is one claim CAS on
// the slot this P released last (the per-P cache, contention.go), whose
// claim word no other P touches in steady state; then one load of the
// rotation hint (no RMW on it: a solo caller reuses the same slot run after
// run) and one claim CAS on that slot; claimSlow owns everything off the
// happy path. Transactions begun after Close fail fast.
//
// bypassGate is the exclusivity holder's own admission (UpdateExclusive);
// everyone else backs off a claimed slot the moment the gate is observed
// closed and parks until it reopens (exclusive.go). The gate check is one
// load of a padded atomic after the claim CAS. A parked acquirer may return
// from gateWait holding an anti-starvation pass: its next claim skips the
// gate check, and the pass count is decremented only after that claim CAS
// so the exclusive drain orders itself behind the claim.
func (e *Engine) acquire(bypassGate bool) *slot {
	if e.closed.Load() {
		panic(tm.ErrEngineClosed)
	}
	s, _ := e.cm.slotCache.Get().(*slot)
	if s == nil || !s.claimed.CompareAndSwap(0, 1) {
		s = &e.slots[e.claimHint.Load()]
		if s.claimed.Load() != 0 || !s.claimed.CompareAndSwap(0, 1) {
			s = e.claimSlow()
		}
	}
	pass := false
	for !bypassGate && !pass && e.excl.gate.v.Load() != 0 {
		e.release(s)
		pass = e.gateWait()
		s = e.claimSlow()
	}
	if pass {
		e.excl.passes.Add(-1)
	}
	return s
}

// claimSlow rotates the hint, so concurrent acquirers spread over the slots,
// and scans from it: spinBudget passes with a yield between them, then the
// engine's wait list until a release wakes it (contention.go) — goroutines
// beyond MaxThreads sleep instead of timeslicing against the workers they
// are waiting on.
func (e *Engine) claimSlow() *slot {
	// Load then store, not an RMW: racing rotations may pick the same start,
	// which costs them a longer scan, never a slot. The hint is stored
	// reduced, so acquire indexes with it directly.
	start := (e.claimHint.Load() + 1) % uint32(len(e.slots))
	e.claimHint.Store(start)
	for {
		for spin := 0; spin <= e.cm.spinBudget; spin++ {
			if s := e.tryClaim(int(start)); s != nil {
				return s
			}
			if e.closed.Load() {
				panic(tm.ErrEngineClosed)
			}
			runtime.Gosched()
		}
		if s := e.park(int(start)); s != nil {
			return s
		}
	}
}

// release frees the slot and wakes one parked acquirer, if any: the
// pipeline's one way out, also for a claim that never entered a transaction
// (an acquirer that found the gate closed) — the admission token must be
// passed on either way, or a parked acquirer waits for a release that
// already happened. With no acquirer parked the slot goes to this P's
// cache for its next acquire; with one parked it does not, so the woken
// acquirer is not beaten to the slot by the cache.
func (e *Engine) release(s *slot) {
	s.claimed.Store(0)
	if e.cm.waiters.Load() > 0 {
		e.wakeOne()
		return
	}
	e.cm.slotCache.Put(s)
}

// pending reports whether txid is committed but possibly not fully applied:
// its owner's request still carries the identifier (§III-A).
func (e *Engine) pending(txid uint64) bool {
	return e.slots[tidOf(txid)].request.Load() == txid
}
