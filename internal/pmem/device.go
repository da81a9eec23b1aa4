package pmem

import (
	"io"
	"sync/atomic"
)

// Device is the persistence contract every NVM backend implements. The
// engines (internal/core, internal/romulus, internal/undolog,
// internal/lockfree) are written against this interface only, so they run
// unmodified on any backend; the device-conformance suite
// (internal/pmem/conformtest) holds every implementation to the same
// semantics.
//
// One model, two image stores. Sim (this package) is the only
// implementation of the semantics below — exact pwb/pfence accounting, the
// sequence guard, per-slot staging of posted write-backs, a seeded
// RelaxedMode that reorders them — and it runs over an image it is given:
//
//   - New: fresh memory, allocated a unit at a time by the first write that
//     reaches it. The in-process simulator, the adversarial backend for
//     crash enumeration; its durability dies with the process.
//   - filedev.Create/Open (internal/pmem/filedev): the regions of an
//     mmap-backed file, so the image survives whole-process crashes and
//     re-execs. filedev.Device is a Sim plus the file: superblock, dirty
//     range, msync.
//
// Method semantics:
//
//   - The raw region is plain 64-bit words with a volatile view (RawLoad/
//     RawStore/RawCAS/RawAdd/RawRegion) and a persistent image; Flush
//     issues one pwb per covered cache line.
//   - The pair region is the persistent image of TM words ({value,
//     sequence} pairs); FlushPair/FlushPairLine post caller-supplied
//     snapshots, merged into the image guarded so that it never regresses
//     past a newer sequence. A word's value at a given sequence must be
//     unique (one committed transaction wrote it): then the merge is a
//     per-word maximum, and the order in which posted lines reach the image
//     cannot be observed.
//   - Fence (pfence) and Drain (atomic-RMW-as-fence) are the ordering
//     points that make the issuing slot's prior flushes durable. A slot is
//     used by one goroutine at a time.
//   - StrictMode: a pwb is durable no later than its slot's next ordering
//     point, and a Crash keeps every posted pwb. With the image observers
//     below merging what is staged before they look, no caller can tell
//     that from every pwb being written through when it is issued — which
//     is what a raw-region Flush still does, a raw line being overwritten
//     rather than merged. RelaxedMode: a pwb is durable at its slot's next
//     ordering point and not before; a Crash keeps a random subset of the
//     ones still staged.
//   - Crash simulates a power failure: everything not durable is lost and
//     the volatile raw view reloads from the persistent image. It requires
//     quiescence, as a real whole-process crash would provide, and so do
//     ImagePair, ImagePairs, ImageRaw, WrittenPairs, WriteTo/ReadFrom and
//     Close.
//   - The device knows which chunks of each image a write ever reached
//     (WrittenPairs): the others hold only zeros. Crash copies the raw chunks
//     that were written into the raw view and zeroes the rest, and attach
//     reads the pair chunks that were written into the pair view and zeroes
//     the rest; neither reads what the image never held.
//   - WriteTo/ReadFrom serialise exactly the durable image (the snapshot
//     format of this package), portable across backends.
//   - Close is an orderly shutdown: buffered flushes are written back and
//     the image synced; the file device then marks a clean shutdown and
//     releases its mapping and file handle.
type Device interface {
	// Mode returns the durability model the device was opened with.
	Mode() Mode
	// Stats returns a snapshot of the persistence counters; see Sim.Stats
	// for the per-counter (not cross-counter) consistency contract.
	Stats() Stats
	// ResetStats zeroes the persistence counters (quiescence required for
	// meaningful deltas; see Sim.ResetStats).
	ResetStats()
	// SetHook installs fn to be called before every persistence event, or
	// removes the hook if fn is nil.
	SetHook(fn func(Event))

	// RawLoad returns the volatile value of raw word off.
	RawLoad(off int) uint64
	// RawStore sets the volatile value of raw word off.
	RawStore(off int, v uint64)
	// RawCAS performs a compare-and-swap on the volatile raw word off.
	RawCAS(off int, old, new uint64) bool
	// RawAdd atomically adds delta to the volatile raw word off.
	RawAdd(off int, delta uint64) uint64
	// RawRegion returns the volatile raw words [off, off+n) as a slice.
	RawRegion(off, n int) []atomic.Uint64

	// Flush issues one pwb per cache line covering raw words [off, off+n).
	Flush(slot, off, n int)
	// FlushPair issues one pwb posting a snapshot of TM word idx.
	FlushPair(slot, idx int, val, seq uint64)
	// FlushPairLine issues one pwb posting snapshots of n TM words that
	// share a pair-region cache line.
	FlushPairLine(slot int, n int, idx *[PairLineWords]int, vals, seqs *[PairLineWords]uint64)
	// Fence issues a pfence ordering the slot's prior flushes.
	Fence(slot int)
	// Drain orders like a fence without counting a pfence (atomic RMW).
	Drain(slot int)

	// Crash simulates a full-system power failure (quiescence required).
	Crash()
	// ImagePair returns the persistent image of TM word idx (quiescence
	// required).
	ImagePair(idx int) (val, seq uint64)
	// ImagePairs returns the persistent image of TM words [lo, lo+n)
	// (quiescence required): recovery's bulk read, in place for every span
	// WrittenPairs reports. The view is read-only and valid until the device
	// is next written or closed.
	ImagePairs(lo, n int) []Pair
	// WrittenPairs returns the spans of TM words, in whole chunks
	// (PairChunkWords), that a write has reached since the pair image was
	// all zeros, each inside one unit of the image; every word outside them
	// is {0, 0} in the image (quiescence required). A device opened over an
	// existing image reports all of it.
	WrittenPairs() []Span
	// ImageRaw returns the persistent image of raw word off.
	ImageRaw(off int) uint64
	// RawWords returns the size of the raw region in words.
	RawWords() int
	// PairWords returns the number of TM words in the pair region.
	PairWords() int
	// PairView returns the volatile pair view, PairWords entries the engine
	// keeps its TM words in, allocated zeroed by the first call (fresh)
	// and the same memory on every later one. The device never touches it;
	// Crash does not, so attach must rebuild all of it: the chunks
	// WrittenPairs reports from the image, zeros over the rest.
	PairView() (view []Pair, fresh bool)

	io.WriterTo
	io.ReaderFrom

	// Close releases backend resources. The device must be quiescent.
	Close() error
}

var _ Device = (*Sim)(nil)
