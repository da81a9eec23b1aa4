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
//     these lives in the owning engine; the device keeps only the image
//     (copied by value — the device never retains engine pointers), guarded
//     by the sequence so a delayed flusher can never regress it — exactly
//     the behaviour of flushing a cache line that a newer DCAS already
//     updated. A pair is 16 bytes, so PairLineWords (4) TM words share one
//     cache line, and FlushPairLine persists up to a whole line of them for
//     a single pwb — the paper's §IV one-pwb-per-modified-line accounting.
//
// In StrictMode every Flush is immediately durable (write-through), which
// matches CLWB followed by a fence on every flush. In RelaxedMode flushes
// are buffered per thread slot and only become durable at the next Fence or
// Drain by that slot; Crash applies a random subset of the still-buffered
// flushes (a pwb may complete early on real hardware) and drops the rest —
// a coalesced line flush is kept or dropped as one unit, like the single
// cache-line write-back it models. RelaxedMode exercises the reordering
// windows that crash-consistency bugs hide in.
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
)

// LineWords is the cache-line size in 64-bit words (64 bytes).
const LineWords = 8

// PairLineWords is the number of TM words ({value, sequence} pairs, 16
// bytes each) that share one cache line.
const PairLineWords = LineWords / 2

// Mode selects the durability model.
type Mode int

const (
	// StrictMode makes every flush immediately durable.
	StrictMode Mode = iota + 1
	// RelaxedMode buffers flushes until the next Fence/Drain of the
	// issuing slot and drops a random subset of buffered flushes at Crash.
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

// pendingPairs is one buffered pair-region pwb: up to PairLineWords word
// snapshots from the same cache line, kept or dropped atomically at Crash.
type pendingPairs struct {
	n    int
	idx  [PairLineWords]int
	vals [PairLineWords]uint64
	seqs [PairLineWords]uint64
}

type slotBuf struct {
	raws  []pendingRaw
	pairs []pendingPairs
}

// Sim is an emulated NVM DIMM. All methods are safe for concurrent use
// except Crash, WriteTo/ReadFrom, Close and Recover-time image accessors,
// which require quiescence (no goroutine inside a transaction), as a real
// whole-process crash would.
type Sim struct {
	cfg Config

	rawVol []atomic.Uint64 // volatile view of the raw region
	rawImg []uint64        // persistent image of the raw region
	rawMu  []sync.Mutex    // per-line-group image locks (raw region only)

	// Persistent image of TM words, by value: word idx is {pairImg[2*idx],
	// pairImg[2*idx+1]} = {value, sequence}. pairMu shards by pair line,
	// emulating the memory controller's atomic line write-back; the
	// sequence guard in commitPairs keeps delayed flushers monotonic.
	pairImg []uint64
	pairMu  []sync.Mutex

	pending []slotBuf // per-slot flush buffers (RelaxedMode)

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
// persistent image starts zeroed (a fresh DIMM).
func New(cfg Config) (*Sim, error) {
	if cfg.RawWords < 0 || cfg.PairWords < 0 {
		return nil, ErrBadConfig
	}
	return NewOver(cfg, make([]uint64, cfg.RawWords), make([]uint64, 2*cfg.PairWords), nil)
}

// NewOver runs the device model over a persistent image the caller owns: raw
// is the raw region's image, pairs the pair region's, interleaved {value,
// sequence} — cfg's sizes must be theirs. The model writes nothing else and
// keeps no copy; the volatile view starts from the image, as after Crash.
// backing, if not nil, is told of every image write and synced at every
// ordering point.
func NewOver(cfg Config, raw, pairs []uint64, backing Backing) (*Sim, error) {
	if len(raw) != cfg.RawWords || len(pairs) != 2*cfg.PairWords || len(raw)+len(pairs) == 0 {
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
		rawImg:  raw,
		rawMu:   make([]sync.Mutex, min(nLines, 1024)+1),
		pairImg: pairs,
		pairMu:  make([]sync.Mutex, min(nPairLines, 1024)+1),
		pending: make([]slotBuf, cfg.MaxSlots),
		backing: backing,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	// The fresh view is zero already: storing only the non-zero words leaves
	// its pages, and a fresh image's, unwritten.
	for i, v := range raw {
		if v != 0 {
			d.rawVol[i].Store(v)
		}
	}
	return d, nil
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
	mu.Lock()
	base := p.line * LineWords
	n := min(LineWords, len(d.rawImg)-base)
	copy(d.rawImg[base:base+n], p.vals[:n])
	mu.Unlock()
	if d.backing != nil {
		d.backing.Dirtied(RawImage, base, n)
	}
}

// Flush issues one pwb per cache line covering raw words [off, off+n).
// slot is the issuing thread slot (used for RelaxedMode buffering).
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

// commitPairs advances the persistent image of the TM words in p, skipping
// any word whose image already holds a newer sequence (monotonic guard). All
// words of p share one pair line, so one shard lock covers them.
//
// Store order inside a word is value THEN sequence. Failure atomicity is 8
// bytes (one aligned word store, the paper's NVM model), and when the image
// is a mapped file a kill can land between the two: the torn pair keeps its
// OLD sequence, so it can never claim a sequence its value does not have —
// the recovery invariant "no word's durable sequence exceeds the durable
// curTx" survives tearing, and null recovery re-applies the value from the
// redo log.
func (d *Sim) commitPairs(p pendingPairs) {
	if p.n == 0 {
		return
	}
	line := p.idx[0] / PairLineWords
	mu := &d.pairMu[line%len(d.pairMu)]
	mu.Lock()
	wrote := false
	for i := 0; i < p.n; i++ {
		at := 2 * p.idx[i]
		// ≥, not >: a word's value at a given sequence is unique (one
		// committed transaction wrote it), so equal-sequence flushes are
		// idempotent — and initialisation writes carry sequence 0.
		if p.seqs[i] >= d.pairImg[at+1] {
			d.pairImg[at] = p.vals[i]
			d.pairImg[at+1] = p.seqs[i]
			wrote = true
		}
	}
	mu.Unlock()
	if wrote && d.backing != nil {
		// The whole line, not the words written: it is the unit a pwb writes
		// back, and over-reporting costs a backing nothing.
		lo := 2 * line * PairLineWords
		d.backing.Dirtied(PairImage, lo, min(2*PairLineWords, len(d.pairImg)-lo))
	}
}

// FlushPair issues one pwb persisting the given snapshot of TM word idx.
// The snapshot must be the flusher's current view of the word (read at
// flush time); the monotonic guard makes stale snapshots harmless.
func (d *Sim) FlushPair(slot, idx int, val, seq uint64) {
	var p pendingPairs
	p.n = 1
	p.idx[0], p.vals[0], p.seqs[0] = idx, val, seq
	d.flushPairs(slot, p)
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
	var p pendingPairs
	p.n = n
	copy(p.idx[:], idx[:n])
	copy(p.vals[:], vals[:n])
	copy(p.seqs[:], seqs[:n])
	d.flushPairs(slot, p)
}

func (d *Sim) flushPairs(slot int, p pendingPairs) {
	d.fire(EvPwb)
	d.pwb.Add(1)
	if d.cfg.Mode == StrictMode {
		d.commitPairs(p)
		return
	}
	d.pending[slot].pairs = append(d.pending[slot].pairs, p)
}

// drain commits all buffered flushes of slot.
func (d *Sim) drain(slot int) {
	buf := &d.pending[slot]
	for _, p := range buf.raws {
		d.commitRawLine(p)
	}
	buf.raws = buf.raws[:0]
	for _, p := range buf.pairs {
		d.commitPairs(p)
	}
	buf.pairs = buf.pairs[:0]
}

// order is the ordering point behind Fence and Drain: the slot's buffered
// flushes reach the image, and the backing syncs what the image holds.
func (d *Sim) order(slot int) {
	if d.cfg.Mode == RelaxedMode {
		d.drain(slot)
	}
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

// Crash simulates a full-system power failure. Buffered flushes are
// independently kept (the pwb happened to complete) or dropped with equal
// probability — a coalesced pair-line flush is one unit; then every
// volatile raw word is reloaded from the persistent image. The caller must
// guarantee quiescence. After Crash the pair image is the only record of TM
// words; engines rebuild their volatile words from it via ImagePairs.
//
// With a mapped file as the image this is the in-process simulation of that
// failure. A real whole-process kill needs no call: reopening the file lands
// in the same state, minus the buffered (never durable) relaxed flushes,
// which dying discards even more thoroughly.
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
			for _, p := range buf.pairs {
				if d.rng.Intn(2) == 0 {
					d.commitPairs(p)
				}
			}
		}
		d.rngMu.Unlock()
	}
	d.reload()
}

// reload drops every buffered flush and resets the volatile view to the
// image: the state a power failure leaves.
func (d *Sim) reload() {
	for s := range d.pending {
		d.pending[s] = slotBuf{}
	}
	for i := range d.rawVol {
		d.rawVol[i].Store(d.rawImg[i])
	}
}

// Close is an orderly power-off (quiescence required): every buffered flush
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
// Intended for recovery and tests.
func (d *Sim) ImagePair(idx int) (val, seq uint64) {
	mu := &d.pairMu[(idx/PairLineWords)%len(d.pairMu)]
	mu.Lock()
	val, seq = d.pairImg[2*idx], d.pairImg[2*idx+1]
	mu.Unlock()
	return val, seq
}

// ImagePairs copies the persistent image of TM words [lo, lo+len(dst)) into
// dst. Callers must be quiescent: unlike ImagePair it takes no line lock.
func (d *Sim) ImagePairs(lo int, dst []Pair) {
	img := d.pairImg[2*lo : 2*(lo+len(dst))]
	// The interleaved image read as the Pairs it holds (same size, same
	// alignment), so the bulk read is one copy.
	copy(dst, unsafe.Slice((*Pair)(unsafe.Pointer(unsafe.SliceData(img))), len(dst)))
}

// ImageRaw returns the persistent image of raw word off. Intended for
// recovery and tests; callers must be quiescent.
func (d *Sim) ImageRaw(off int) uint64 { return d.rawImg[off] }

// RawWords returns the size of the raw region.
func (d *Sim) RawWords() int { return len(d.rawVol) }

// PairWords returns the size of the pair region.
func (d *Sim) PairWords() int { return len(d.pairImg) / 2 }
