// Package filedev implements pmem.Device on a real mmap-backed file: the
// persistent image lives in the mapping, so it survives whole-process
// crashes (SIGKILL, re-exec) — the durability the in-process simulator can
// only emulate. The file models the paper's NVM region (a PM_REGION_SIZE
// file on /dev/shm or disk, as in Romulus):
//
//	offset 0        superblock (one 4 KiB block): magic, layout version,
//	                region sizes, clean/dirty state, checksum
//	offset 4096     raw region: RawWords × 8 bytes, block-aligned
//	then            pair region: PairWords × 16 bytes ({value, sequence}
//	                interleaved), block-aligned
//
// Semantic mapping from the simulator (see DESIGN.md §12):
//
//   - pwb (Flush*)   = copy the covered line's current content into the
//     mapping and extend the dirty byte range. A store that reaches the
//     mapping survives a process kill (the page cache holds it), which is
//     exactly the "pwb reached the memory controller" point of the model.
//   - pfence/Drain   = msync the dirty range. Only after the msync is the
//     image safe against a host power failure, mirroring pwb-then-pfence.
//   - Crash()        = the in-process power-failure simulation the
//     conformance and crashcheck suites drive: pending (un-fenced) relaxed
//     buffers are partially lost, volatile views reload from the image. A
//     real whole-process kill needs no call — dying IS the crash.
//
// StrictMode writes through to the mapping on every Flush; RelaxedMode
// buffers per slot until the next Fence/Drain and loses a seeded random
// subset of un-ordered write-backs at Crash, exactly like the simulator.
//
// Failure atomicity is 8 bytes (one aligned word store), the paper's NVM
// model. A kill can therefore land between the two stores of a pair image;
// commitPairs writes value before sequence, so a torn pair keeps its OLD
// sequence — the recovery invariant "no word's durable sequence exceeds
// the durable curTx" can never be violated by tearing, and null recovery
// re-applies the value from the redo log.
package filedev

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"onefile/internal/pmem"
)

// Superblock layout (word indices into the first block).
const (
	sbMagicWord   = 0 // magic
	sbVersionWord = 1 // layout version
	sbRawWord     = 2 // raw-region size in 64-bit words
	sbPairWord    = 3 // pair-region size in TM words
	sbStateWord   = 4 // stateClean or stateDirty
	sbCrcWord     = 5 // IEEE CRC-32 of words 0..4 (as 40 little-endian bytes)

	sbMagic       = 0x0F11E_DE_7001 // "OneFile device", layout family 1
	layoutVersion = 1

	stateClean = 1
	stateDirty = 2

	// blockBytes aligns the superblock and each region. It is a format
	// constant (not the runtime page size): offsets must not depend on the
	// host the file was created on.
	blockBytes = 4096
)

// Typed open errors. onefile-inspect surfaces these verbatim, and the fuzz
// suite asserts every malformed image lands on one of them (never a panic,
// never a silently-open device).
var (
	// ErrCorruptSuperblock reports a missing, truncated or checksum-failing
	// superblock (also: a file too short for the sizes its superblock
	// declares).
	ErrCorruptSuperblock = errors.New("filedev: corrupt superblock")
	// ErrLayoutVersion reports a superblock written by an incompatible
	// layout version of this package.
	ErrLayoutVersion = errors.New("filedev: unsupported layout version")
	// ErrSizeMismatch reports opening with a config whose region sizes
	// disagree with the superblock.
	ErrSizeMismatch = errors.New("filedev: config/superblock size mismatch")
	// ErrClosed reports use of a closed device.
	ErrClosed = errors.New("filedev: device is closed")
)

type pendingRaw struct {
	line int
	vals [pmem.LineWords]uint64
}

// pendingPairs is one buffered pair-region pwb: up to PairLineWords word
// snapshots from the same cache line, kept or dropped atomically at Crash.
type pendingPairs struct {
	n    int
	idx  [pmem.PairLineWords]int
	vals [pmem.PairLineWords]uint64
	seqs [pmem.PairLineWords]uint64
}

type slotBuf struct {
	raws  []pendingRaw
	pairs []pendingPairs
}

// Device is an mmap-backed pmem.Device. All methods are safe for concurrent
// use except Crash, WriteTo/ReadFrom, image accessors and Close, which
// require quiescence — as a real whole-process crash would provide.
type Device struct {
	cfg  pmem.Config
	path string
	f    *os.File
	data []byte // the whole mapping

	sb      []uint64 // superblock words (mapped)
	rawImg  []uint64 // raw persistent image (mapped)
	pairImg []uint64 // pair persistent image (mapped, {val,seq} interleaved)
	rawOff  int      // byte offset of the raw region in the mapping
	pairOff int      // byte offset of the pair region in the mapping

	rawVol []atomic.Uint64 // volatile view of the raw region (heap)

	rawMu  []sync.Mutex // per-line-group image locks (raw region)
	pairMu []sync.Mutex // per-pair-line image locks

	pending []slotBuf // per-slot flush buffers (RelaxedMode)

	// Dirty byte range of the mapping since the last msync; lo > hi means
	// clean. One coarse range, not a page set: msync of untouched pages in
	// between is harmless, and the workloads' dirty bytes cluster.
	dirtyMu sync.Mutex
	dirtyLo int
	dirtyHi int

	pwb    atomic.Uint64
	pfence atomic.Uint64
	pdrain atomic.Uint64

	hook atomic.Pointer[func(pmem.Event)]

	rngMu sync.Mutex
	rng   *rand.Rand

	wasClean bool
	closed   atomic.Bool
}

var _ pmem.Device = (*Device)(nil)

func blockUp(n int) int { return (n + blockBytes - 1) / blockBytes * blockBytes }

// layout returns the region byte offsets and total file size for cfg.
func layout(rawWords, pairWords int) (rawOff, pairOff, total int) {
	rawOff = blockBytes
	pairOff = rawOff + blockUp(rawWords*8)
	total = pairOff + blockUp(pairWords*16)
	return
}

// sbCRC computes the superblock checksum over words 0..4.
func sbCRC(sb []uint64) uint64 {
	var b [40]byte
	for i := 0; i < 5; i++ {
		v := sb[i]
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(v >> (8 * j))
		}
	}
	return uint64(crc32.ChecksumIEEE(b[:]))
}

// validateSuperblock checks a superblock read from an existing file against
// the file size and returns the recorded geometry and clean flag. Every
// failure is one of the package's typed errors.
func validateSuperblock(sb []uint64, size int) (rawWords, pairWords int, clean bool, err error) {
	if sb[sbMagicWord] != sbMagic {
		return 0, 0, false, fmt.Errorf("%w: bad magic %#x", ErrCorruptSuperblock, sb[sbMagicWord])
	}
	if sb[sbVersionWord] != layoutVersion {
		return 0, 0, false, fmt.Errorf("%w: file has layout %d, this build reads %d",
			ErrLayoutVersion, sb[sbVersionWord], layoutVersion)
	}
	if got, want := sb[sbCrcWord], sbCRC(sb); got != want {
		return 0, 0, false, fmt.Errorf("%w: checksum %#x, want %#x", ErrCorruptSuperblock, got, want)
	}
	s := sb[sbStateWord]
	if s != stateClean && s != stateDirty {
		return 0, 0, false, fmt.Errorf("%w: state word %d is neither clean nor dirty", ErrCorruptSuperblock, s)
	}
	rawWords, pairWords = int(sb[sbRawWord]), int(sb[sbPairWord])
	// Reject sizes whose layout math would overflow or exceed the file
	// before trusting them.
	if rawWords < 0 || pairWords < 0 || rawWords > (1<<40) || pairWords > (1<<40) {
		return 0, 0, false, fmt.Errorf("%w: implausible region sizes %d/%d", ErrCorruptSuperblock, rawWords, pairWords)
	}
	if _, _, total := layout(rawWords, pairWords); size < total {
		return 0, 0, false, fmt.Errorf("%w: file is %d bytes, layout needs %d (truncated image)",
			ErrCorruptSuperblock, size, total)
	}
	return rawWords, pairWords, s == stateClean, nil
}

// Info describes a device file's superblock as found on disk.
type Info struct {
	LayoutVersion uint64
	RawWords      int
	PairWords     int
	// Clean reports an orderly shutdown; false means the file is a crash
	// image (the process holding it died before Close).
	Clean bool
}

// leWords decodes little-endian 64-bit words from b. The on-disk format is
// the mapped memory of the writing host; every supported platform is
// little-endian, so this matches wordsOf without needing an aligned cast.
func leWords(b []byte) []uint64 {
	w := make([]uint64, len(b)/8)
	for i := range w {
		v := uint64(0)
		for j := 7; j >= 0; j-- {
			v = v<<8 | uint64(b[i*8+j])
		}
		w[i] = v
	}
	return w
}

// ReadImage reads a device file WITHOUT opening it: the superblock is
// validated, but the file is not mapped, not marked dirty, not mutated in
// any way. It returns the superblock description and copies of the raw and
// interleaved {value, sequence} pair images — the post-mortem primitive
// onefile-inspect is built on, safe to point at the one surviving copy of a
// crash image.
func ReadImage(path string) (Info, []uint64, []uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, nil, nil, err
	}
	if len(data) < blockBytes {
		return Info{}, nil, nil, fmt.Errorf("%w: file is %d bytes, smaller than one superblock",
			ErrCorruptSuperblock, len(data))
	}
	sb := leWords(data[:blockBytes])
	rawWords, pairWords, clean, err := validateSuperblock(sb, len(data))
	if err != nil {
		return Info{}, nil, nil, err
	}
	rawOff, pairOff, _ := layout(rawWords, pairWords)
	info := Info{
		LayoutVersion: sb[sbVersionWord],
		RawWords:      rawWords,
		PairWords:     pairWords,
		Clean:         clean,
	}
	raw := leWords(data[rawOff : rawOff+rawWords*8])
	pairs := leWords(data[pairOff : pairOff+pairWords*16])
	return info, raw, pairs, nil
}

func normalize(cfg pmem.Config) (pmem.Config, error) {
	if cfg.RawWords < 0 || cfg.PairWords < 0 || cfg.RawWords+cfg.PairWords == 0 {
		return cfg, pmem.ErrBadConfig
	}
	if cfg.Mode == 0 {
		cfg.Mode = pmem.StrictMode
	}
	if cfg.Mode != pmem.StrictMode && cfg.Mode != pmem.RelaxedMode {
		return cfg, pmem.ErrBadConfig
	}
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = 1024
	}
	return cfg, nil
}

// Create formats a fresh device file at path (which must not exist) sized
// for cfg and returns it open. The image starts zeroed — a fresh DIMM.
func Create(path string, cfg pmem.Config) (*Device, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	_, _, total := layout(cfg.RawWords, cfg.PairWords)
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	d, err := attach(f, path, cfg, true)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return d, nil
}

// Open maps an existing device file. The superblock is validated (magic,
// layout version, checksum, sizes); cfg's region sizes must match the
// superblock's, or be both zero to adopt the file's own sizes. A device
// whose superblock says "dirty" opens fine — that is the crash-recovery
// path (WasClean reports which) — but a malformed superblock never does.
func Open(path string, cfg pmem.Config) (*Device, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	d, err := attach(f, path, cfg, false)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// OpenOrCreate opens path if it holds a device, creates it otherwise.
// created reports which happened.
func OpenOrCreate(path string, cfg pmem.Config) (d *Device, created bool, err error) {
	if _, statErr := os.Stat(path); statErr == nil {
		d, err = Open(path, cfg)
		return d, false, err
	} else if !errors.Is(statErr, os.ErrNotExist) {
		return nil, false, statErr
	}
	d, err = Create(path, cfg)
	return d, true, err
}

func attach(f *os.File, path string, cfg pmem.Config, create bool) (*Device, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(st.Size())
	if size < blockBytes {
		return nil, fmt.Errorf("%w: file is %d bytes, smaller than one superblock", ErrCorruptSuperblock, size)
	}
	data, err := mapFile(f, size)
	if err != nil {
		return nil, err
	}
	sb := wordsOf(data[:blockBytes])

	// fail unmaps and returns err. Its argument is evaluated BEFORE the
	// unmap, so error messages may safely quote superblock words.
	fail := func(err error) (*Device, error) {
		unmapFile(data)
		return nil, err
	}
	if create {
		sb[sbMagicWord] = sbMagic
		sb[sbVersionWord] = layoutVersion
		sb[sbRawWord] = uint64(cfg.RawWords)
		sb[sbPairWord] = uint64(cfg.PairWords)
	} else {
		fileRaw, filePair, _, err := validateSuperblock(sb, size)
		if err != nil {
			return fail(err)
		}
		if cfg.RawWords == 0 && cfg.PairWords == 0 {
			cfg.RawWords, cfg.PairWords = fileRaw, filePair
		} else if cfg.RawWords != fileRaw || cfg.PairWords != filePair {
			return fail(fmt.Errorf("%w: config wants %d/%d words, superblock holds %d/%d",
				ErrSizeMismatch, cfg.RawWords, cfg.PairWords, fileRaw, filePair))
		}
		cfg2, err := normalize(cfg)
		if err != nil {
			return fail(fmt.Errorf("%w: empty region sizes", ErrCorruptSuperblock))
		}
		cfg = cfg2
	}

	rawOff, pairOff, _ := layout(cfg.RawWords, cfg.PairWords)
	nLines := (cfg.RawWords + pmem.LineWords - 1) / pmem.LineWords
	nPairLines := (cfg.PairWords + pmem.PairLineWords - 1) / pmem.PairLineWords
	d := &Device{
		cfg:      cfg,
		path:     path,
		f:        f,
		data:     data,
		sb:       sb,
		rawImg:   wordsOf(data[rawOff : rawOff+cfg.RawWords*8]),
		pairImg:  wordsOf(data[pairOff : pairOff+cfg.PairWords*16]),
		rawOff:   rawOff,
		pairOff:  pairOff,
		rawVol:   make([]atomic.Uint64, cfg.RawWords),
		rawMu:    make([]sync.Mutex, minInt(nLines, 1024)+1),
		pairMu:   make([]sync.Mutex, minInt(nPairLines, 1024)+1),
		pending:  make([]slotBuf, cfg.MaxSlots),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		dirtyLo:  1,
		dirtyHi:  0,
		wasClean: create || sb[sbStateWord] == stateClean,
	}
	// Volatile views start from the image, as after a crash.
	for i := range d.rawVol {
		d.rawVol[i].Store(d.rawImg[i])
	}
	// The mapping is now live: mark the superblock dirty so an un-Closed
	// file is visibly a crash image, and make that durable before any
	// engine traffic.
	d.sb[sbStateWord] = stateDirty
	d.sb[sbCrcWord] = sbCRC(d.sb)
	if err := syncRange(d.data, 0, blockBytes, d.f); err != nil {
		unmapFile(data)
		return nil, err
	}
	return d, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Path returns the backing file's path (post-mortem inspection aid).
func (d *Device) Path() string { return d.path }

// WasClean reports whether the file recorded a clean shutdown when this
// device opened it (Create counts as clean).
func (d *Device) WasClean() bool { return d.wasClean }

// Mode returns the durability model the device was opened with.
func (d *Device) Mode() pmem.Mode { return d.cfg.Mode }

// Stats returns a snapshot of the persistence counters (per-counter
// consistent, not a mutually consistent cut; see pmem.Sim.Stats).
func (d *Device) Stats() pmem.Stats {
	return pmem.Stats{Pwb: d.pwb.Load(), Pfence: d.pfence.Load(), Pdrain: d.pdrain.Load()}
}

// ResetStats zeroes the persistence counters (quiesce for meaningful
// deltas; see pmem.Sim.ResetStats).
func (d *Device) ResetStats() {
	d.pwb.Store(0)
	d.pfence.Store(0)
	d.pdrain.Store(0)
}

// SetHook installs fn to be called before every persistence event, or
// removes the hook if fn is nil.
func (d *Device) SetHook(fn func(pmem.Event)) {
	if fn == nil {
		d.hook.Store(nil)
		return
	}
	d.hook.Store(&fn)
}

func (d *Device) fire(ev pmem.Event) {
	if h := d.hook.Load(); h != nil {
		(*h)(ev)
	}
}

// --- raw region: volatile accessors ---

// RawLoad returns the volatile value of raw word off.
func (d *Device) RawLoad(off int) uint64 { return d.rawVol[off].Load() }

// RawStore sets the volatile value of raw word off.
func (d *Device) RawStore(off int, v uint64) { d.rawVol[off].Store(v) }

// RawCAS performs a compare-and-swap on the volatile raw word off.
func (d *Device) RawCAS(off int, old, new uint64) bool {
	return d.rawVol[off].CompareAndSwap(old, new)
}

// RawAdd atomically adds delta to the volatile raw word off.
func (d *Device) RawAdd(off int, delta uint64) uint64 {
	return d.rawVol[off].Add(delta)
}

// RawRegion returns the volatile raw words [off, off+n) as a slice.
func (d *Device) RawRegion(off, n int) []atomic.Uint64 {
	return d.rawVol[off : off+n]
}

// --- dirty-range tracking ---

// markDirty extends the to-be-msynced byte range to cover [off, off+n).
func (d *Device) markDirty(off, n int) {
	d.dirtyMu.Lock()
	if d.dirtyLo > d.dirtyHi {
		d.dirtyLo, d.dirtyHi = off, off+n
	} else {
		if off < d.dirtyLo {
			d.dirtyLo = off
		}
		if off+n > d.dirtyHi {
			d.dirtyHi = off + n
		}
	}
	d.dirtyMu.Unlock()
}

// sync makes the dirty range durable (the pfence of this backend). msync
// failure panics: a persistence device that cannot persist must not let
// the engine continue believing its fence succeeded.
func (d *Device) sync() {
	d.dirtyMu.Lock()
	lo, hi := d.dirtyLo, d.dirtyHi
	d.dirtyLo, d.dirtyHi = 1, 0
	d.dirtyMu.Unlock()
	if lo > hi {
		return
	}
	if err := syncRange(d.data, lo, hi-lo, d.f); err != nil {
		panic(fmt.Sprintf("filedev: msync: %v", err))
	}
}

// --- raw region: persistence ---

func lineOf(off int) int { return off / pmem.LineWords }

func (d *Device) snapshotLine(line int) (p pendingRaw) {
	p.line = line
	base := line * pmem.LineWords
	for i := 0; i < pmem.LineWords && base+i < len(d.rawVol); i++ {
		p.vals[i] = d.rawVol[base+i].Load()
	}
	return p
}

func (d *Device) commitRawLine(p pendingRaw) {
	mu := &d.rawMu[p.line%len(d.rawMu)]
	mu.Lock()
	base := p.line * pmem.LineWords
	n := 0
	for i := 0; i < pmem.LineWords && base+i < len(d.rawImg); i++ {
		d.rawImg[base+i] = p.vals[i]
		n++
	}
	mu.Unlock()
	d.markDirty(d.rawOff+base*8, n*8)
}

// Flush issues one pwb per cache line covering raw words [off, off+n). In
// StrictMode the line content reaches the mapping immediately (durable
// against a process kill); msync at the next Fence/Drain makes it durable
// against power loss.
func (d *Device) Flush(slot, off, n int) {
	if n <= 0 {
		return
	}
	first, last := lineOf(off), lineOf(off+n-1)
	for line := first; line <= last; line++ {
		d.fire(pmem.EvPwb)
		d.pwb.Add(1)
		snap := d.snapshotLine(line)
		if d.cfg.Mode == pmem.StrictMode {
			d.commitRawLine(snap)
		} else {
			d.pending[slot].raws = append(d.pending[slot].raws, snap)
		}
	}
}

// --- pair region: persistence ---

// commitPairs advances the pair image, skipping words whose image already
// holds a newer sequence. Store order inside a word is value THEN sequence:
// a kill between the two 8-byte stores leaves the old sequence, so a torn
// pair can never claim a sequence its value does not have (see the package
// comment).
func (d *Device) commitPairs(p pendingPairs) {
	if p.n == 0 {
		return
	}
	mu := &d.pairMu[(p.idx[0]/pmem.PairLineWords)%len(d.pairMu)]
	mu.Lock()
	lo, hi := -1, -1
	for i := 0; i < p.n; i++ {
		idx := p.idx[i]
		// ≥, not >: equal-sequence flushes are idempotent (one committed
		// transaction wrote the value), and initialisation carries seq 0.
		if p.seqs[i] >= d.pairImg[2*idx+1] {
			d.pairImg[2*idx] = p.vals[i]
			d.pairImg[2*idx+1] = p.seqs[i]
			if lo == -1 || 2*idx < lo {
				lo = 2 * idx
			}
			if 2*idx+1 > hi {
				hi = 2*idx + 1
			}
		}
	}
	mu.Unlock()
	if lo >= 0 {
		d.markDirty(d.pairOff+lo*8, (hi-lo+1)*8)
	}
}

// FlushPair issues one pwb persisting the given snapshot of TM word idx.
func (d *Device) FlushPair(slot, idx int, val, seq uint64) {
	var p pendingPairs
	p.n = 1
	p.idx[0], p.vals[0], p.seqs[0] = idx, val, seq
	d.flushPairs(slot, p)
}

// FlushPairLine issues ONE pwb persisting the given snapshots of n TM words
// sharing one pair-region cache line (see pmem.Sim.FlushPairLine).
func (d *Device) FlushPairLine(slot int, n int, idx *[pmem.PairLineWords]int, vals, seqs *[pmem.PairLineWords]uint64) {
	if n <= 0 {
		return
	}
	if n > pmem.PairLineWords {
		panic("filedev: FlushPairLine called with more words than a line holds")
	}
	line := idx[0] / pmem.PairLineWords
	for i := 1; i < n; i++ {
		if idx[i]/pmem.PairLineWords != line {
			panic("filedev: FlushPairLine words span cache lines")
		}
	}
	var p pendingPairs
	p.n = n
	copy(p.idx[:], idx[:n])
	copy(p.vals[:], vals[:n])
	copy(p.seqs[:], seqs[:n])
	d.flushPairs(slot, p)
}

func (d *Device) flushPairs(slot int, p pendingPairs) {
	d.fire(pmem.EvPwb)
	d.pwb.Add(1)
	if d.cfg.Mode == pmem.StrictMode {
		d.commitPairs(p)
		return
	}
	d.pending[slot].pairs = append(d.pending[slot].pairs, p)
}

// drain commits all buffered flushes of slot (RelaxedMode).
func (d *Device) drain(slot int) {
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

// Fence issues a pfence: the slot's prior flushes reach the mapping (if
// buffered) and the dirty range is msynced to media.
func (d *Device) Fence(slot int) {
	d.fire(pmem.EvFence)
	d.pfence.Add(1)
	if d.cfg.Mode == pmem.RelaxedMode {
		d.drain(slot)
	}
	d.sync()
}

// Drain orders like a fence without counting a pfence (atomic-RMW-as-fence).
func (d *Device) Drain(slot int) {
	d.fire(pmem.EvDrain)
	d.pdrain.Add(1)
	if d.cfg.Mode == pmem.RelaxedMode {
		d.drain(slot)
	}
	d.sync()
}

// --- crash and recovery ---

// Crash simulates a full-system power failure in-process (quiescence
// required): buffered relaxed flushes are independently kept or dropped,
// then the volatile views reload from the image. A real whole-process kill
// needs no Crash call — reopening the file in a fresh process lands in the
// same state, minus the heap-buffered (never-durable) relaxed writes, which
// dying discards even more thoroughly.
func (d *Device) Crash() {
	if d.cfg.Mode == pmem.RelaxedMode {
		d.rngMu.Lock()
		for s := range d.pending {
			buf := &d.pending[s]
			for _, p := range buf.raws {
				if d.rng.Intn(2) == 0 {
					d.commitRawLine(p)
				}
			}
			buf.raws = nil
			for _, p := range buf.pairs {
				if d.rng.Intn(2) == 0 {
					d.commitPairs(p)
				}
			}
			buf.pairs = nil
		}
		d.rngMu.Unlock()
	} else {
		for s := range d.pending {
			d.pending[s] = slotBuf{}
		}
	}
	for i := range d.rawVol {
		d.rawVol[i].Store(d.rawImg[i])
	}
}

// ImagePair returns the persistent image of TM word idx (value, sequence).
func (d *Device) ImagePair(idx int) (val, seq uint64) {
	mu := &d.pairMu[(idx/pmem.PairLineWords)%len(d.pairMu)]
	mu.Lock()
	val, seq = d.pairImg[2*idx], d.pairImg[2*idx+1]
	mu.Unlock()
	return val, seq
}

// ImagePairs copies the persistent image of TM words [lo, lo+len(vals))
// into vals and seqs (quiescence required: no line lock is taken).
func (d *Device) ImagePairs(lo int, vals, seqs []uint64) {
	img := d.pairImg[2*lo : 2*(lo+len(vals))]
	for i := range vals {
		vals[i], seqs[i] = img[2*i], img[2*i+1]
	}
}

// ImageRaw returns the persistent image of raw word off (quiescence
// required).
func (d *Device) ImageRaw(off int) uint64 { return d.rawImg[off] }

// RawWords returns the size of the raw region in words.
func (d *Device) RawWords() int { return d.cfg.RawWords }

// PairWords returns the number of TM words in the pair region.
func (d *Device) PairWords() int { return d.cfg.PairWords }

// WriteTo serialises the durable image in the portable snapshot format
// (quiescence required). It implements io.WriterTo.
func (d *Device) WriteTo(w io.Writer) (int64, error) {
	return pmem.EncodeImage(w, d.rawImg, d.pairImg)
}

// ReadFrom loads a portable snapshot into the mapping (matching region
// sizes, quiescence required), discards pending buffers, reloads the
// volatile views and msyncs. It implements io.ReaderFrom.
func (d *Device) ReadFrom(r io.Reader) (int64, error) {
	n, err := pmem.DecodeImage(r, d.rawImg, d.pairImg)
	if err != nil {
		return n, err
	}
	for s := range d.pending {
		d.pending[s] = slotBuf{}
	}
	for i := range d.rawVol {
		d.rawVol[i].Store(d.rawImg[i])
	}
	d.markDirty(0, len(d.data))
	d.sync()
	return n, nil
}

// Close performs an orderly shutdown (quiescence required): buffered
// flushes are written back (the wbinvd of an orderly power-off), the whole
// mapping is msynced, the superblock is marked clean, and the mapping and
// file are released. The device must not be used afterwards.
func (d *Device) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	for s := range d.pending {
		d.drain(s)
	}
	if err := syncRange(d.data, 0, len(d.data), d.f); err != nil {
		d.unmapAndClose()
		return err
	}
	d.sb[sbStateWord] = stateClean
	d.sb[sbCrcWord] = sbCRC(d.sb)
	if err := syncRange(d.data, 0, blockBytes, d.f); err != nil {
		d.unmapAndClose()
		return err
	}
	return d.unmapAndClose()
}

func (d *Device) unmapAndClose() error {
	err := unmapFile(d.data)
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	d.data, d.sb, d.rawImg, d.pairImg = nil, nil, nil, nil
	return err
}
