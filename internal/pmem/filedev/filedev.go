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
// The persistence model itself — pwb, ordering points, the two modes, the
// sequence guard, Crash, the snapshot codec — is pmem.Sim's, running over
// the two mapped regions (see DESIGN.md §12). This package adds what only a
// file has:
//
//   - a pwb (Flush*) that reaches the image has reached the mapping, and the
//     page cache holds it: it survives a process kill, which is exactly the
//     "pwb reached the memory controller" point of the model. The model
//     reports each such write and the mapping extends its dirty byte range.
//     A pair-line pwb gets there at its slot's ordering point, where the
//     model merges what the slot staged; until then a kill loses it, as it
//     may any pwb that no ordering point has followed.
//   - pfence/Drain = that merge, then msync of the range — exactly the lines
//     this ordering point makes durable, plus what other slots reported
//     meanwhile. Only after the msync is the image safe against a host power
//     failure, mirroring pwb-then-pfence.
//   - the superblock: dirty from Open until an orderly Close, so a file
//     whose holder died is visibly a crash image. A real whole-process kill
//     needs no Crash call — dying IS the crash.
package filedev

import (
	"errors"
	"fmt"
	"hash/crc32"
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
)

// Device is a pmem.Sim whose persistent image is a mapped file: every
// pmem.Device method but Close is the model's. All methods are safe for
// concurrent use except Crash, WriteTo/ReadFrom, image accessors and Close,
// which require quiescence — as a real whole-process crash would provide.
type Device struct {
	*pmem.Sim // nil once closed: later use panics instead of touching the unmapped image

	m        *mapping
	path     string
	wasClean bool
	closed   atomic.Bool
}

// mapping is the file behind a Device's image, and the pmem.Backing the
// model reports its image writes to.
type mapping struct {
	f    *os.File
	data []byte   // the whole mapping
	sb   []uint64 // superblock words (mapped)

	rawOff  int // byte offset of the raw region in the mapping
	pairOff int // byte offset of the pair region in the mapping

	// Dirty byte range of the mapping since the last msync; lo > hi means
	// clean. One coarse range, not a page set: msync of untouched pages in
	// between is harmless, and the workloads' dirty bytes cluster.
	mu     sync.Mutex
	lo, hi int
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
	// Reject sizes whose layout math would overflow or exceed the file
	// before trusting them, and the empty device no Create can make. The
	// bound is checked in int64, then the sizes must fit an int (they do
	// not above 2³¹ words on a 32-bit target).
	raw, pair := int64(sb[sbRawWord]), int64(sb[sbPairWord])
	if raw < 0 || pair < 0 || raw > (1<<40) || pair > (1<<40) || raw+pair == 0 ||
		int64(int(raw)) != raw || int64(int(pair)) != pair {
		return 0, 0, false, fmt.Errorf("%w: implausible region sizes %d/%d", ErrCorruptSuperblock, raw, pair)
	}
	rawWords, pairWords = int(raw), int(pair)
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

// Create formats a fresh device file at path (which must not exist) sized
// for cfg and returns it open. The image starts zeroed — a fresh DIMM — and
// the device counts no chunk of it as written (pmem.Sim.WrittenPairs).
func Create(path string, cfg pmem.Config) (*Device, error) {
	if cfg.RawWords < 0 || cfg.PairWords < 0 {
		return nil, pmem.ErrBadConfig // before the sizes lay out a file
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
// Every chunk of the image counts as written: what the file holds is not
// read until recovery reads it.
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
	}

	rawOff, pairOff, _ := layout(cfg.RawWords, cfg.PairWords)
	m := &mapping{f: f, data: data, sb: sb, rawOff: rawOff, pairOff: pairOff, lo: 1}
	sim, err := pmem.NewOver(cfg,
		wordsOf(data[rawOff:rawOff+cfg.RawWords*8]),
		wordsOf(data[pairOff:pairOff+cfg.PairWords*16]), m, create)
	if err != nil {
		return fail(err)
	}
	d := &Device{Sim: sim, m: m, path: path, wasClean: create || sb[sbStateWord] == stateClean}
	// The mapping is now live: mark the superblock dirty so an un-Closed
	// file is visibly a crash image, and make that durable before any
	// engine traffic.
	sb[sbStateWord] = stateDirty
	sb[sbCrcWord] = sbCRC(sb)
	if err := syncRange(data, 0, blockBytes, f); err != nil {
		return fail(err)
	}
	return d, nil
}

// Dirtied extends the to-be-msynced byte range over words [word, word+n) of
// the named image.
func (m *mapping) Dirtied(region pmem.Region, word, n int) {
	off := m.rawOff
	if region == pmem.PairImage {
		off = m.pairOff
	}
	m.extend(off+word*8, off+(word+n)*8)
}

func (m *mapping) extend(lo, hi int) {
	m.mu.Lock()
	if m.lo > m.hi {
		m.lo, m.hi = lo, hi
	} else {
		m.lo, m.hi = min(m.lo, lo), max(m.hi, hi)
	}
	m.mu.Unlock()
}

// Sync msyncs the dirty range (the pfence of this backend). The range is
// taken, not held, so other slots' write-backs do not wait on the syscall;
// on failure it is put back, so the lost bytes stay owed.
func (m *mapping) Sync() error {
	m.mu.Lock()
	lo, hi := m.lo, m.hi
	m.lo, m.hi = 1, 0
	m.mu.Unlock()
	if lo > hi {
		return nil
	}
	if err := syncRange(m.data, lo, hi-lo, m.f); err != nil {
		m.extend(lo, hi)
		return fmt.Errorf("filedev: msync: %w", err)
	}
	return nil
}

// Path returns the backing file's path (post-mortem inspection aid).
func (d *Device) Path() string { return d.path }

// WasClean reports whether the file recorded a clean shutdown when this
// device opened it (Create counts as clean).
func (d *Device) WasClean() bool { return d.wasClean }

// Close performs an orderly shutdown (quiescence required): buffered
// flushes are written back (the wbinvd of an orderly power-off) and synced,
// the whole mapping is msynced, the superblock is marked clean, and the
// mapping and file are released. If any sync fails the file stays marked
// dirty — a crash image, which is what it may be. The device must not be
// used afterwards.
func (d *Device) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	m := d.m
	err := d.Sim.Close()
	d.Sim = nil
	if err == nil {
		// The whole mapping, not only the reported range: an orderly
		// shutdown does not lean on the dirty accounting.
		err = syncRange(m.data, 0, len(m.data), m.f)
	}
	if err == nil {
		m.sb[sbStateWord] = stateClean
		m.sb[sbCrcWord] = sbCRC(m.sb)
		err = syncRange(m.data, 0, blockBytes, m.f)
	}
	if uerr := unmapFile(m.data); err == nil {
		err = uerr
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.data, m.sb = nil, nil
	return err
}
