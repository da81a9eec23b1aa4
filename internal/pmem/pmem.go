// Package pmem emulates a byte-addressable non-volatile memory device with
// the persistence semantics the paper's algorithms rely on:
//
//   - a store becomes durable only after a persistent write-back (pwb,
//     Flush*) of its cache line and a subsequent ordering point (pfence,
//     Fence, or an atomic RMW that acts as one, Drain);
//   - a crash (Crash) discards everything that was not durable;
//   - flushing persists the *current* content of a line, so the persistent
//     image never moves backwards past a newer flushed value.
//
// The device exposes two address spaces:
//
//   - the raw region: plain 64-bit words with volatile and persistent
//     copies, flushed at 64-byte (8-word) cache-line granularity. Redo/undo
//     logs, replica data and hand-made persistent structures live here.
//   - the pair region: the persistent image of two-word TM words
//     ({value, sequence} pairs, see package dcas). The volatile truth for
//     these is the owning engine's; the device keeps the image (copied by
//     value — the device never retains engine pointers), guarded by the
//     sequence so a delayed flusher can never regress it — exactly the
//     behaviour of flushing a cache line that a newer DCAS already updated.
//     A pair is 16 bytes, so PairLineWords (4) TM words share one cache
//     line, and FlushPairLine persists up to a whole line of them for a
//     single pwb — the paper's §IV one-pwb-per-modified-line accounting.
//     The device also owns memory for the volatile words (PairView), which
//     it hands to the engine and never reads or writes itself.
//
// A pwb is posted, not waited for: FlushPair and FlushPairLine append the
// line's snapshot to the issuing slot's staging buffer, and the slot's next
// ordering point merges what the buffer holds into the image — the paper's
// model (§III-D, §IV), in which only the ordering point pays for persistence.
// The two modes differ in what a posted pwb is worth before that point:
//
//   - StrictMode: a posted pwb is durable no later than the slot's next
//     ordering point, and a Crash keeps every posted pwb. That cannot be told
//     from a device that writes every pwb through at once: the pair merge is
//     a per-word maximum by sequence — commutative and idempotent, equal
//     sequence meaning equal value — so when a staged line merges does not
//     change any image an observer can see, and every image observer (Crash,
//     ImagePair, ImagePairs, WrittenPairs, WriteTo, ReadFrom, Close) merges
//     first. A raw-region Flush does write through: a raw line is overwritten
//     by its snapshot, not max-merged, so the order of two slots' flushes of
//     one line matters.
//   - RelaxedMode: every flush, raw or pair, is staged until the next Fence
//     or Drain by its slot; Crash applies a random subset of the still-staged
//     flushes (a pwb may complete early on real hardware) and drops the rest —
//     a coalesced line flush is kept or dropped as one unit, like the single
//     cache-line write-back it models. RelaxedMode exercises the reordering
//     windows that crash-consistency bugs hide in.
//
// The simulator (New) holds each image only where a write has reached it:
// an image is a table of units, each allocated by the first write that
// reaches it, and a unit no write reached reads as zeros to every observer.
// Its memory follows what the workload writes, not the configured size.
//
// The device also counts pwb and pfence events (Table I of the paper) and
// offers a hook called before every persistence event, which failure-
// injection tests use to simulate a crash at an exact point.
package pmem

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"onefile/internal/hugepage"
)

// LineWords is the cache-line size in 64-bit words (64 bytes).
const LineWords = 8

// PairLineWords is the number of TM words ({value, sequence} pairs, 16
// bytes each) that share one cache line.
const PairLineWords = LineWords / 2

// The device remembers, per chunk of each image, whether any write ever
// reached it (WrittenPairs): a chunk no write reached holds only zeros, so
// recovery copies the chunks that were written and zeroes the others without
// reading them. A chunk is a whole number of cache lines, and small enough
// that a heap filled to a quarter leaves three quarters unread.
const (
	// PairChunkWords is the chunk of the pair image, in TM words (256 KiB).
	PairChunkWords = 1 << 14
	// rawChunkWords is the chunk of the raw image, in words (64 KiB).
	rawChunkWords = 1 << 13
)

// Span is the range of words [Lo, Hi).
type Span struct{ Lo, Hi int }

// Mode selects the durability model.
type Mode int

const (
	// StrictMode keeps every posted pwb: a raw flush writes through, a pair
	// flush is durable no later than its slot's next ordering point, and a
	// Crash merges whatever is still staged.
	StrictMode Mode = iota + 1
	// RelaxedMode stages every flush until the next Fence/Drain of the
	// issuing slot and drops a random subset of staged flushes at Crash.
	RelaxedMode
)

// Event identifies a persistence event for hooks.
type Event int

const (
	// EvPwb is a persistent write-back (Flush / FlushPair / FlushPairLine).
	EvPwb Event = iota + 1
	// EvFence is an explicit persistent fence.
	EvFence
	// EvDrain is an ordering point provided by an atomic RMW (the
	// "CAS acts as pfence" path); it is not counted as a pfence.
	EvDrain
)

// Config sizes a Device.
type Config struct {
	RawWords  int   // size of the raw region in 64-bit words
	PairWords int   // number of TM words in the pair region
	Mode      Mode  // durability model; StrictMode if zero
	MaxSlots  int   // number of flush-issuing slots (thread slots)
	Seed      int64 // RNG seed for RelaxedMode crash behaviour
}

// Stats are the device's persistence counters.
type Stats struct {
	Pwb    uint64 // persistent write-backs issued
	Pfence uint64 // persistent fences issued
	Pdrain uint64 // ordering drains issued (atomic-RMW-as-fence points)
}

// Pair is the persistent image of one TM word, laid out as the image stores
// it: value first, sequence second, 16 bytes.
type Pair struct{ Val, Seq uint64 }

// Region names one of a device's two persistent images.
type Region int

const (
	RawImage  Region = iota // the raw region's image, one word per raw word
	PairImage               // the pair image, two words ({value, sequence}) per TM word
)

// Backing is what stands behind a persistent image that is more than process
// memory. The in-process simulator has none. Both methods may be called
// concurrently.
type Backing interface {
	// Dirtied reports that the model has just written the n 64-bit words
	// starting at word of the named image.
	Dirtied(region Region, word, n int)
	// Sync makes every write reported so far durable. The model calls it at
	// every Fence and Drain, after ReadFrom and at Close. After a failure
	// the writes it covered must stay reported.
	Sync() error
}

// ErrSync matches (errors.Is) every SyncError.
var ErrSync = errors.New("pmem: image sync failed")

// SyncError is the panic value of a Fence or Drain whose Backing could not
// sync — an ordering point has no way to fail, and returning would tell the
// engine its flushes are durable — and of every ordering point after it: a
// device that lost a sync never reports durability again. It wraps the
// backing's error.
type SyncError struct{ Err error }

func (e *SyncError) Error() string        { return "pmem: image sync failed: " + e.Err.Error() }
func (e *SyncError) Unwrap() error        { return e.Err }
func (e *SyncError) Is(target error) bool { return target == ErrSync }

type pendingRaw struct {
	line int
	vals [LineWords]uint64
}

// pendingPairs is one staged pair-region pwb: up to PairLineWords word
// snapshots from the same cache line, kept or dropped atomically at Crash.
type pendingPairs struct {
	n    int
	idx  [PairLineWords]int
	vals [PairLineWords]uint64
	seqs [PairLineWords]uint64
}

const (
	// mergeChunk is how many staged pair lines an ordering point merges under
	// one set of line locks. Between two locked instructions a core waits for
	// the image miss in between; with a chunk's locks taken first, its misses
	// overlap. Sixteen is past what the core keeps in flight, and the most
	// locks one goroutine holds at a time.
	mergeChunk = 16
	// maxStaged bounds a StrictMode slot's staged pair lines: a slot holding
	// this many merges them before it stages another, so a caller that never
	// reaches an ordering point stages in constant space. A RelaxedMode slot
	// has no bound — what it merged early, a Crash could no longer drop.
	maxStaged = 64
)

// slotBuf holds one slot's staged flushes: raw lines in RelaxedMode only,
// pair lines in both modes. Only the goroutine using the slot touches it
// (and the quiescent callers — Crash, Close, the image observers); the
// padding keeps neighbouring slots' appends off each other's cache line.
type slotBuf struct {
	raws  []pendingRaw
	pairs []pendingPairs
	touch uint64 // sum of the guards mergeChunk read ahead; never read
	_     [8]byte
}

// Sim is an emulated NVM DIMM. All methods are safe for concurrent use —
// Flush*, Fence and Drain by one goroutine per slot at a time, a slot being
// the issuing thread — except Crash, WriteTo/ReadFrom, Close and the image
// accessors, which require quiescence (no goroutine inside a transaction),
// as a real whole-process crash would.
type Sim struct {
	cfg Config

	rawVol []atomic.Uint64 // volatile view of the raw region
	raw    image           // persistent image of the raw region
	rawMu  []sync.Mutex    // per-line-group image locks (raw region only)

	// Persistent image of TM words, by value: word idx is words 2*idx and
	// 2*idx+1 of pair, {value, sequence}. pairMu shards by pair line,
	// emulating the memory controller's atomic line write-back; the
	// sequence guard in mergeLine keeps delayed flushers monotonic.
	pair   image
	pairMu []sync.Mutex

	pending []slotBuf // per-slot staged flushes

	viewMu sync.Mutex
	view   []Pair // the volatile pair view (PairView); nil until first asked for

	backing Backing                   // nil: the images are all there is
	syncErr atomic.Pointer[SyncError] // first failed Backing.Sync; never cleared

	pwb    atomic.Uint64
	pfence atomic.Uint64
	pdrain atomic.Uint64

	hook atomic.Pointer[func(Event)]

	rngMu sync.Mutex
	rng   *rand.Rand
}

// ErrBadConfig reports an invalid device configuration.
var ErrBadConfig = errors.New("pmem: invalid device configuration")

// New creates the in-process simulator: the model over fresh memory. The
// persistent image starts zeroed (a fresh DIMM) and is not allocated whole:
// each unit of it (pairUnitWords TM words of the pair image, rawUnitWords
// words of the raw one) is allocated by the first write that reaches it, on
// huge pages where the platform gives them (package hugepage) — merges and
// recovery's walk read it at random and end to end — and reads as zeros until
// then. ImageMemory reports what it holds.
func New(cfg Config) (*Sim, error) {
	if cfg.RawWords < 0 || cfg.PairWords < 0 {
		return nil, ErrBadConfig
	}
	return newSim(cfg, nil, nil, nil, true)
}

// NewOver runs the device model over a persistent image the caller owns: raw
// is the raw region's image, pairs the pair region's, interleaved {value,
// sequence} — cfg's sizes must be theirs. The model writes nothing else and
// keeps no copy: every unit of the image is a slice of that memory from the
// start. The volatile view starts from the image, as after Crash. backing, if
// not nil, is told of every image write and synced at every ordering point.
// zeroed says the image holds only zeros, as a fresh one does: then the
// device counts no chunk as written until a write reaches it (WrittenPairs);
// otherwise it counts every chunk as written.
func NewOver(cfg Config, raw, pairs []uint64, backing Backing, zeroed bool) (*Sim, error) {
	if len(raw) != cfg.RawWords || len(pairs) != 2*cfg.PairWords {
		return nil, ErrBadConfig
	}
	return newSim(cfg, raw, pairs, backing, zeroed)
}

// newSim is the constructor behind New (raw and pairs nil: units allocated
// on write) and NewOver.
func newSim(cfg Config, raw, pairs []uint64, backing Backing, zeroed bool) (*Sim, error) {
	if cfg.RawWords+cfg.PairWords == 0 {
		return nil, ErrBadConfig
	}
	if cfg.Mode == 0 {
		cfg.Mode = StrictMode
	}
	if cfg.Mode != StrictMode && cfg.Mode != RelaxedMode {
		return nil, ErrBadConfig
	}
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = 1024
	}
	nLines := (cfg.RawWords + LineWords - 1) / LineWords
	nPairLines := (cfg.PairWords + PairLineWords - 1) / PairLineWords
	d := &Sim{
		cfg:     cfg,
		rawVol:  make([]atomic.Uint64, cfg.RawWords),
		rawMu:   make([]sync.Mutex, min(nLines, 1024)+1),
		pairMu:  make([]sync.Mutex, min(nPairLines, 1024)+1),
		pending: make([]slotBuf, cfg.MaxSlots),
		backing: backing,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	d.raw.init(cfg.RawWords, rawUnitWords, rawChunkWords, raw)
	d.pair.init(2*cfg.PairWords, 2*pairUnitWords, 2*PairChunkWords, pairs)
	if !zeroed { // over a zeroed image the raw view is right as allocated
		d.raw.holdAll()
		d.pair.holdAll()
		d.loadRaw()
	}
	return d, nil
}

// An atomic.Uint64 is one 64-bit word on every target (loadRaw reads a slice
// of them as the words they hold); anything else fails to compile here.
var _ [0]struct{} = [unsafe.Sizeof(atomic.Uint64{}) - 8]struct{}{}

// loadRaw sets the volatile raw view to the image with plain stores: a copy
// of every chunk a write reached, and zeros over the others, whose pages go
// back to the kernel (hugepage.Zero) — a redo log no slot used costs nothing.
// Its callers are the constructor, which has not published the device yet,
// and Crash and ReadFrom, whose contract is quiescence: whatever hands the
// device back to its users afterwards orders the stores before their atomic
// accesses.
func (d *Sim) loadRaw() {
	vol := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(d.rawVol))), len(d.rawVol))
	at := 0
	for _, sp := range d.raw.spans() {
		hugepage.Zero(vol[at:sp.Lo])
		copy(vol[sp.Lo:sp.Hi], d.raw.read(sp.Lo, sp.Hi))
		at = sp.Hi
	}
	hugepage.Zero(vol[at:])
}

// WrittenPairs returns the parts of the pair image that a write has reached
// since the image was all zeros, as ascending, disjoint TM-word spans, each
// made of whole chunks (PairChunkWords) but at the image's end, and each
// inside one unit of the image (pairUnitWords): two spans touch only where
// units meet, and ImagePairs returns any of them in place. Every word outside
// them holds {0, 0}. A device made over an image of unknown content (NewOver
// without zeroed, filedev.Open) reports all of it. Callers must be quiescent.
func (d *Sim) WrittenPairs() []Span {
	d.settle()
	spans := d.pair.spans()
	for i := range spans {
		spans[i] = Span{spans[i].Lo / 2, spans[i].Hi / 2}
	}
	return spans
}

// ImageMemory reports what the named image holds in memory against what it
// is configured to hold: the units a write has reached, on a simulator (New);
// every unit, over an image the caller owns (NewOver, filedev). Callers must
// be quiescent.
func (d *Sim) ImageMemory(r Region) ImageMem {
	if r == PairImage {
		return d.pair.mem()
	}
	return d.raw.mem()
}

// PairView returns the device's volatile pair view: PairWords entries in the
// image's layout, in which the engine that owns the pair region keeps its
// volatile TM words, so that an engine re-attached to the device rebuilds its
// heap in memory that is already there instead of allocating and zeroing a
// new heap and then filling it. The device never reads or writes the view:
// Crash leaves it as it is — DRAM holds garbage after a power failure — and
// whoever attaches must rebuild every word of it: the chunks WrittenPairs
// reports from the image, and zeros over the others.
//
// The view is allocated by the first call, so a device whose engine never
// asks for one carries none: zeroed, starting on a cache line, and advised
// onto huge pages (package hugepage) without over-allocating for a 2 MiB
// boundary. fresh reports that this call allocated it: the view holds only
// zeros. Every call returns the same memory.
func (d *Sim) PairView() (view []Pair, fresh bool) {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	if d.view != nil || d.cfg.PairWords == 0 {
		return d.view, false
	}
	// Words, not Pairs, so the start can move by 8 bytes onto the line.
	raw := make([]uint64, 2*d.cfg.PairWords+LineWords-1)
	off := uintptr(unsafe.Pointer(unsafe.SliceData(raw))) % (8 * LineWords)
	skip := int((8*LineWords - off) % (8 * LineWords) / 8)
	d.view = unsafe.Slice((*Pair)(unsafe.Pointer(&raw[skip])), d.cfg.PairWords)
	hugepage.Advise(d.view)
	return d.view, true
}

// Mode returns the device's durability model.
func (d *Sim) Mode() Mode { return d.cfg.Mode }

// Stats returns a snapshot of the persistence counters.
//
// Snapshot semantics: each counter is read with its own atomic load, so
// the result is per-counter consistent but NOT a mutually consistent cut —
// under concurrent flushes the Pwb value may include an event whose
// matching Pfence/Pdrain is not yet counted (and vice versa). Each counter
// individually is monotonic and exact: once flushing quiesces, Stats
// returns the precise event totals. Callers deriving cross-counter ratios
// (pwb/op, fences/op) must therefore quiesce first or tolerate a skew of
// at most the number of in-flight flushers — which is how the bench
// harness uses it (counters are sampled after the measured section joins
// its workers).
func (d *Sim) Stats() Stats {
	return Stats{Pwb: d.pwb.Load(), Pfence: d.pfence.Load(), Pdrain: d.pdrain.Load()}
}

// ResetStats zeroes the persistence counters. The three stores are not
// atomic as a group: a flush racing with ResetStats may land between them
// and survive in one counter but not another, so deltas straddling a
// concurrent reset are meaningless. Call it only while no transaction is
// in flight (between bench phases); for concurrent-safe deltas, snapshot
// with Stats twice and use Stats.Sub instead.
func (d *Sim) ResetStats() {
	d.pwb.Store(0)
	d.pfence.Store(0)
	d.pdrain.Store(0)
}

// SetHook installs fn to be called before every persistence event, or
// removes the hook if fn is nil. Used by failure-injection tests.
func (d *Sim) SetHook(fn func(Event)) {
	if fn == nil {
		d.hook.Store(nil)
		return
	}
	d.hook.Store(&fn)
}

func (d *Sim) fire(ev Event) {
	if h := d.hook.Load(); h != nil {
		(*h)(ev)
	}
}

// --- raw region: volatile accessors ---

// RawLoad returns the volatile value of raw word off.
func (d *Sim) RawLoad(off int) uint64 { return d.rawVol[off].Load() }

// RawStore sets the volatile value of raw word off. Not durable until the
// covering line is flushed and fenced.
func (d *Sim) RawStore(off int, v uint64) { d.rawVol[off].Store(v) }

// RawCAS performs a compare-and-swap on the volatile raw word off.
func (d *Sim) RawCAS(off int, old, new uint64) bool {
	return d.rawVol[off].CompareAndSwap(old, new)
}

// RawAdd atomically adds delta to the volatile raw word off and returns the
// new value.
func (d *Sim) RawAdd(off int, delta uint64) uint64 {
	return d.rawVol[off].Add(delta)
}

// RawRegion returns the volatile raw words [off, off+n) as a slice, letting
// an engine use device memory directly as its shared structures (redo logs,
// replicas). Stores through the slice are volatile; persistence still goes
// through Flush.
func (d *Sim) RawRegion(off, n int) []atomic.Uint64 {
	return d.rawVol[off : off+n]
}

// --- raw region: persistence ---

// lineOf returns the line index covering raw word off.
func lineOf(off int) int { return off / LineWords }

// snapshotLine captures the current volatile content of a line.
func (d *Sim) snapshotLine(line int) (p pendingRaw) {
	p.line = line
	base := line * LineWords
	for i := 0; i < LineWords && base+i < len(d.rawVol); i++ {
		p.vals[i] = d.rawVol[base+i].Load()
	}
	return p
}

func (d *Sim) commitRawLine(p pendingRaw) {
	mu := &d.rawMu[p.line%len(d.rawMu)]
	base := p.line * LineWords
	n := min(LineWords, d.raw.n-base)
	u := base / rawUnitWords // a line lies in one unit
	mu.Lock()
	img := d.raw.write(u)[base-u*rawUnitWords:]
	copy(img[:n], p.vals[:n])
	mu.Unlock()
	d.raw.hold(base / rawChunkWords)
	if d.backing != nil {
		d.backing.Dirtied(RawImage, base, n)
	}
}

// Flush issues one pwb per cache line covering raw words [off, off+n).
// slot is the issuing thread slot. In StrictMode the line is written through
// rather than staged like a pair line: a raw line is overwritten by its
// snapshot, not merged by sequence, so two slots' flushes of one line must
// reach the image in the order they were issued.
func (d *Sim) Flush(slot, off, n int) {
	if n <= 0 {
		return
	}
	first, last := lineOf(off), lineOf(off+n-1)
	for line := first; line <= last; line++ {
		d.fire(EvPwb)
		d.pwb.Add(1)
		snap := d.snapshotLine(line)
		if d.cfg.Mode == StrictMode {
			d.commitRawLine(snap)
		} else {
			d.pending[slot].raws = append(d.pending[slot].raws, snap)
		}
	}
}

// --- pair region: persistence ---

// mergeLine advances the persistent image of the TM words in p, skipping any
// word whose image already holds a newer sequence (monotonic guard), and
// reports whether it wrote; a line that wrote marks its chunk written
// (WrittenPairs). img is the unit of the image that holds the line
// (pairUnit). The caller holds the line's lock.
//
// Store order inside a word is value THEN sequence. Failure atomicity is 8
// bytes (one aligned word store, the paper's NVM model), and when the image
// is a mapped file a kill can land between the two: the torn pair keeps its
// OLD sequence, so it can never claim a sequence its value does not have —
// the recovery invariant "no word's durable sequence exceeds the durable
// curTx" survives tearing, and null recovery re-applies the value from the
// redo log.
func (d *Sim) mergeLine(p *pendingPairs, img []uint64) (wrote bool) {
	for i := 0; i < p.n; i++ {
		at := inUnit(p.idx[i])
		// ≥, not >: a word's value at a given sequence is unique (one
		// committed transaction wrote it), so equal-sequence flushes are
		// idempotent — and initialisation writes carry sequence 0.
		if p.seqs[i] >= img[at+1] {
			img[at] = p.vals[i]
			img[at+1] = p.seqs[i]
			wrote = true
		}
	}
	if wrote {
		d.pair.hold(p.idx[0] / PairChunkWords) // a line lies in one chunk
	}
	return wrote
}

// pairUnit returns the unit of the pair image that holds p's line (a line
// lies in one unit), allocated if absent: merging p writes it, since an
// absent unit holds sequence 0.
func (d *Sim) pairUnit(p *pendingPairs) []uint64 {
	return d.pair.write(p.idx[0] / pairUnitWords)
}

// inUnit returns where the value of TM word idx lies in its unit of the pair
// image; its sequence follows it.
func inUnit(idx int) int { return 2 * idx & (2*pairUnitWords - 1) }

// pairShard returns the index in pairMu of the lock over p's line (all words
// of p share one pair line).
func (d *Sim) pairShard(p *pendingPairs) int {
	return (p.idx[0] / PairLineWords) % len(d.pairMu)
}

// dirtiedPairLine reports a write to p's line to the backing. The whole
// line, not the words written: it is the unit a pwb writes back, and
// over-reporting costs a backing nothing.
func (d *Sim) dirtiedPairLine(p *pendingPairs) {
	lo := p.idx[0] / PairLineWords * PairLineWords * 2
	d.backing.Dirtied(PairImage, lo, min(2*PairLineWords, d.pair.n-lo))
}

// mergeOne merges one staged line into the image: lock, merge, unlock.
func (d *Sim) mergeOne(p *pendingPairs) {
	mu := &d.pairMu[d.pairShard(p)]
	mu.Lock()
	wrote := d.mergeLine(p, d.pairUnit(p))
	mu.Unlock()
	if wrote && d.backing != nil {
		d.dirtiedPairLine(p)
	}
}

// mergeChunk merges up to mergeChunk staged lines into the image under all
// of their line locks at once. The locks are taken in ascending shard order,
// each once, so two slots merging interleaved lines cannot deadlock. A chunk
// of one line — the small commit's 1 pwb + 1 pfence — does not pay for a
// batch.
func (d *Sim) mergeChunk(buf *slotBuf, ps []pendingPairs) {
	if len(ps) == 1 {
		d.mergeOne(&ps[0])
		return
	}
	var shards [mergeChunk]int
	ns := 0
	for i := range ps {
		// Insertion from the back: the engine flushes in address order, so
		// the shards mostly arrive sorted already.
		sh := d.pairShard(&ps[i])
		j := ns
		for j > 0 && shards[j-1] > sh {
			j--
		}
		if j > 0 && shards[j-1] == sh {
			continue
		}
		for k := ns; k > j; k-- {
			shards[k] = shards[k-1]
		}
		shards[j] = sh
		ns++
	}
	for _, sh := range shards[:ns] {
		d.pairMu[sh].Lock()
	}
	// Find every line's unit first, so that the loop below is a few
	// instructions a line: it reads one guard of every line before merging
	// any, with nothing between these loads to order them, so the lines'
	// cache misses overlap — as many as that loop's lines fit in the core's
	// window — and the merge below finds the lines present. Under the locks,
	// so it is no race.
	var units [mergeChunk][]uint64
	at, img := -1, []uint64(nil)
	for i := range ps {
		// The engine flushes in address order, so a chunk's lines mostly
		// share one unit, and it is looked up once.
		if u := ps[i].idx[0] / pairUnitWords; u != at {
			at, img = u, d.pair.write(u)
		}
		units[i] = img
	}
	var touch uint64
	for i := range ps {
		touch += units[i][inUnit(ps[i].idx[0])+1]
	}
	buf.touch = touch // a use the compiler cannot drop the loads for
	var wrote [mergeChunk]bool
	for i := range ps {
		wrote[i] = d.mergeLine(&ps[i], units[i])
	}
	for _, sh := range shards[:ns] {
		d.pairMu[sh].Unlock()
	}
	if d.backing != nil {
		for i := range ps {
			if wrote[i] {
				d.dirtiedPairLine(&ps[i])
			}
		}
	}
}

// mergePairs merges every pair line buf has staged into the image, in the
// order they were posted, and empties it.
func (d *Sim) mergePairs(buf *slotBuf) {
	for ps := buf.pairs; len(ps) > 0; {
		n := min(len(ps), mergeChunk)
		d.mergeChunk(buf, ps[:n])
		ps = ps[n:]
	}
	buf.pairs = buf.pairs[:0]
}

// post is the part of a pair-region pwb that is not the snapshot: the hook,
// the count, and room for one line in the slot's buffer. Nothing reaches the
// image here.
func (d *Sim) post(slot int) *pendingPairs {
	d.fire(EvPwb)
	d.pwb.Add(1)
	buf := &d.pending[slot]
	if len(buf.pairs) == maxStaged && d.cfg.Mode == StrictMode {
		d.mergePairs(buf)
	}
	buf.pairs = append(buf.pairs, pendingPairs{})
	return &buf.pairs[len(buf.pairs)-1]
}

// FlushPair issues one pwb persisting the given snapshot of TM word idx.
// The snapshot must be the flusher's current view of the word (read at
// flush time); the monotonic guard makes stale snapshots harmless.
func (d *Sim) FlushPair(slot, idx int, val, seq uint64) {
	p := d.post(slot)
	p.n = 1
	p.idx[0], p.vals[0], p.seqs[0] = idx, val, seq
}

// FlushPairLine issues ONE pwb persisting the given snapshots of n TM words
// that all reside in the same pair-region cache line (idx[i]/PairLineWords
// equal for all i) — the write-back of one modified cache line. Only the
// flusher's own snapshots are persisted; untouched neighbours in the line
// keep their image, which is conservative relative to real hardware and
// preserves the recovery invariant that no word's durable sequence exceeds
// the durable curTx (see internal/core attach).
func (d *Sim) FlushPairLine(slot int, n int, idx *[PairLineWords]int, vals, seqs *[PairLineWords]uint64) {
	if n <= 0 {
		return
	}
	if n > PairLineWords {
		panic("pmem: FlushPairLine called with more words than a line holds")
	}
	line := idx[0] / PairLineWords
	for i := 1; i < n; i++ {
		if idx[i]/PairLineWords != line {
			panic("pmem: FlushPairLine words span cache lines")
		}
	}
	p := d.post(slot)
	p.n = n
	copy(p.idx[:], idx[:n])
	copy(p.vals[:], vals[:n])
	copy(p.seqs[:], seqs[:n])
}

// drain merges all staged flushes of slot into the image.
func (d *Sim) drain(slot int) {
	buf := &d.pending[slot]
	for _, p := range buf.raws {
		d.commitRawLine(p)
	}
	buf.raws = buf.raws[:0]
	d.mergePairs(buf)
}

// settle merges every pair line a StrictMode slot has staged and no ordering
// point has merged yet. StrictMode keeps every posted pwb, so whoever looks
// at the image (quiescent, like every caller of this) must find them in it.
// A RelaxedMode image holds only what an ordering point made durable.
func (d *Sim) settle() {
	if d.cfg.Mode != StrictMode {
		return
	}
	for s := range d.pending {
		if buf := &d.pending[s]; len(buf.pairs) != 0 {
			d.mergePairs(buf)
		}
	}
}

// order is the ordering point behind Fence and Drain: the slot's staged
// flushes reach the image — the backing hears of exactly the lines this
// ordering point makes durable — and the backing syncs what the image holds.
func (d *Sim) order(slot int) {
	d.drain(slot)
	if d.backing != nil {
		if err := d.sync(); err != nil {
			panic(err)
		}
	}
}

// sync asks the backing to make the image durable. The first failure is kept
// and answers every later call: the writes that sync covered may be lost, so
// no later one may report success over them.
func (d *Sim) sync() error {
	if e := d.syncErr.Load(); e != nil {
		return e
	}
	if err := d.backing.Sync(); err != nil {
		e := &SyncError{Err: err}
		d.syncErr.Store(e)
		return e
	}
	return nil
}

// Fence issues a pfence: all flushes previously issued by slot become
// durable. It panics with a *SyncError if the backing cannot sync.
func (d *Sim) Fence(slot int) {
	d.fire(EvFence)
	d.pfence.Add(1)
	d.order(slot)
}

// Drain provides the ordering of a fence without counting a pfence. It
// models an atomic RMW instruction that orders prior CLWBs on x86 (the
// paper's "the successful CAS acts as a pfence"). It panics like Fence.
func (d *Sim) Drain(slot int) {
	d.fire(EvDrain)
	d.pdrain.Add(1)
	d.order(slot)
}

// --- crash and recovery ---

// Crash simulates a full-system power failure. StrictMode keeps every staged
// pair line. In RelaxedMode staged flushes are independently kept (the pwb
// happened to complete) or dropped with equal probability — a coalesced
// pair-line flush is one unit. Then every volatile raw word is reloaded from
// the persistent image: the chunks a write ever reached are copied, the
// others zeroed unread (loadRaw). The caller must guarantee quiescence.
// After Crash the pair image is the only record of TM words; engines rebuild
// their volatile words from it via WrittenPairs and ImagePairs. The pair view
// (PairView) is left as it is: what it holds is no record of anything.
//
// With a mapped file as the image this is the in-process simulation of that
// failure. A real whole-process kill needs no call: reopening the file lands
// in the same state, minus the flushes still staged — never durable, in
// either mode — which dying discards even more thoroughly.
func (d *Sim) Crash() {
	if d.cfg.Mode == RelaxedMode {
		d.rngMu.Lock()
		for s := range d.pending {
			buf := &d.pending[s]
			for _, p := range buf.raws {
				if d.rng.Intn(2) == 0 {
					d.commitRawLine(p)
				}
			}
			for i := range buf.pairs {
				if d.rng.Intn(2) == 0 {
					d.mergeOne(&buf.pairs[i])
				}
			}
		}
		d.rngMu.Unlock()
	}
	d.settle()
	d.reload()
}

// reload drops every staged flush and resets the volatile view to the
// image: the state a power failure leaves.
func (d *Sim) reload() {
	for s := range d.pending {
		d.pending[s] = slotBuf{}
	}
	d.loadRaw()
}

// Close is an orderly power-off (quiescence required): every staged flush
// is written back, as by a wbinvd, and the backing syncs. The in-process
// simulator holds no external resources, so its images stay readable
// afterwards, which crash tests rely on (a closed simulator is still
// inspectable).
func (d *Sim) Close() error {
	for s := range d.pending {
		d.drain(s)
	}
	if d.backing != nil {
		return d.sync()
	}
	return nil
}

// ImagePair returns the persistent image of TM word idx (value, sequence).
// Intended for recovery and tests; callers must be quiescent.
func (d *Sim) ImagePair(idx int) (val, seq uint64) {
	d.settle()
	mu := &d.pairMu[(idx/PairLineWords)%len(d.pairMu)]
	mu.Lock()
	val, seq = d.pair.load(2*idx), d.pair.load(2*idx+1)
	mu.Unlock()
	return val, seq
}

// ImagePairs returns the persistent image of TM words [lo, lo+n). Where they
// lie in one unit of the image that a write has reached — every span
// WrittenPairs reports does — it is the image in place: the interleaved image
// read as the Pairs it holds (same size, same alignment), not a copy of it.
// Otherwise it is a copy, with zeros where no write reached. The view is
// read-only, and valid until the device is next written (any Flush*, Fence,
// Drain, Crash or ReadFrom) or closed — over a mapped file, a view used after
// Close touches unmapped memory. Callers must be quiescent: unlike ImagePair
// it takes no line lock.
func (d *Sim) ImagePairs(lo, n int) []Pair {
	d.settle()
	img := d.pair.read(2*lo, 2*(lo+n))
	return unsafe.Slice((*Pair)(unsafe.Pointer(unsafe.SliceData(img))), n)
}

// ImageRaw returns the persistent image of raw word off. Intended for
// recovery and tests; callers must be quiescent.
func (d *Sim) ImageRaw(off int) uint64 { return d.raw.load(off) }

// RawWords returns the size of the raw region.
func (d *Sim) RawWords() int { return len(d.rawVol) }

// PairWords returns the size of the pair region.
func (d *Sim) PairWords() int { return d.cfg.PairWords }
