//go:build amd64

package dcas

import (
	"sync/atomic"
	"unsafe"

	"onefile/internal/hugepage"
)

// Native reports whether TMWord is the flat 16-byte word under a hardware
// double-word CAS (true) or the pointer emulation (false).
const Native = true

// TMWord is one TM word: the paper's TMType, two adjacent 64-bit words
// changed together by CMPXCHG16B (every x86-64 CPU since 2006 has it). The
// instruction faults on an operand that is not 16-byte aligned, and Go
// aligns this struct to 8 only, so TM words must come from NewSlab — never
// from a variable, a struct field or make.
//
// Race builds run this same word. The detector cannot see the assembly's
// write, so CompareAndSwap shows it one of its own (raceEnabled).
type TMWord struct {
	val uint64
	seq uint64
}

// A TMWord is an Image's 16 bytes, which is what lets SlabOver lay one over
// the other; anything else fails to compile here.
var _ [0]struct{} = [unsafe.Sizeof(TMWord{}) - 16]struct{}{}

// SlabOver returns n TM words laid over the first n entries of the memory view
// returns — the device's volatile pair view, which keeps the words alive and
// whose layout, value then sequence, is the word's — and passes on view's
// report that the memory holds only zeros. It panics unless the memory holds
// n entries and starts on a 16-byte boundary, which the DCAS needs.
func SlabOver[P Image](n int, view func() ([]P, bool)) (words []TMWord, zeroed bool) {
	mem, zeroed := view()
	if len(mem) < n {
		panic("dcas: pair view holds fewer words than the slab")
	}
	p := unsafe.Pointer(unsafe.SliceData(mem))
	if uintptr(p)%16 != 0 {
		panic("dcas: pair view is not 16-byte aligned")
	}
	return unsafe.Slice((*TMWord)(p), n), zeroed
}

// NewSlab returns n zeroed TM words, 16-byte aligned, in one pointer-free
// allocation, advised onto huge pages (package hugepage): a heap is read at
// random, and on 4 KiB pages most of its misses also miss the TLB.
func NewSlab(n int) []TMWord {
	s := align16(make([]TMWord, n+1), n)
	hugepage.Advise(s)
	return s
}

// ZeroWords sets every word of s to {0, 0} through hugepage.Zero: the pages
// inside it go back to the kernel, so words no one touched cost nothing to
// zero. Single-threaded initialisation and recovery only, as Store.
func ZeroWords(s []TMWord) { hugepage.Zero(s) }

// align16 returns the n 16-byte-aligned words inside raw, which holds n+1:
// the allocator hands out 16-byte-aligned blocks for this size class today,
// and the spare word is what makes that an observation, not a requirement.
func align16(raw []TMWord, n int) []TMWord {
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if uintptr(p)%16 != 0 {
		p = unsafe.Add(p, 8)
	}
	if uintptr(p)%16 != 0 {
		panic("dcas: TM word slab is not 8-byte aligned")
	}
	return unsafe.Slice((*TMWord)(p), n)
}

// Load returns the value and then the sequence, as two atomic loads in that
// order. The pair can be torn only by a DCAS that landed between the two,
// and then seq is that DCAS's or a later one's: a caller that rejects every
// seq above a bound it fixed beforehand (Alg. 1's load: abort on
// seq > startSeq; the apply loop: done on seq ≥ the applied sequence) never
// acts on a torn pair. Callers that need the pair as it stood at one
// instant use Snapshot.
func (w *TMWord) Load() (val, seq uint64) {
	val = atomic.LoadUint64(&w.val)
	seq = atomic.LoadUint64(&w.seq)
	return val, seq
}

// Snapshot reads sequence, value, sequence. ok reports that both sequence
// reads agree, which — sequences only grow — means no DCAS landed in
// between and {val, seq} is the word as it stood at one instant. It never
// retries: !ok tells the caller a newer DCAS is in flight, and every caller
// already has an answer for "the word moved on".
func (w *TMWord) Snapshot() (val, seq uint64, ok bool) {
	seq = atomic.LoadUint64(&w.seq)
	val = atomic.LoadUint64(&w.val)
	return val, seq, atomic.LoadUint64(&w.seq) == seq
}

// CompareAndSwap atomically replaces {oldVal, oldSeq} with {newVal, newSeq}
// and reports whether it did: the DCAS of Alg. 1 line 14.
//
// Under the race detector it first swaps the sequence for itself, an atomic
// write the detector sees as a release on the word. Every reader acquires
// the word through the atomic load of its sequence (Load, Snapshot), so what
// the caller wrote before the DCAS happens before whatever a reader does
// once it sees the new pair. The release comes before the DCAS, so no reader
// sees the pair without it. It happens only while the sequence is still
// oldSeq; a DCAS that then loses to another writer has released for nothing,
// which can hide a race but never reports a false one. Release builds
// compile the branch away.
func (w *TMWord) CompareAndSwap(oldVal, oldSeq, newVal, newSeq uint64) bool {
	if raceEnabled {
		atomic.CompareAndSwapUint64(&w.seq, oldSeq, oldSeq)
	}
	return cas128(w, oldVal, oldSeq, newVal, newSeq)
}

// Store sets the word with plain stores. Single-threaded initialisation and
// recovery only; publishing the slab to other goroutines orders it.
func (w *TMWord) Store(val, seq uint64) {
	w.val, w.seq = val, seq
}

// cas128 is LOCK CMPXCHG16B on *w (tmword_amd64.s).
//
//go:noescape
func cas128(w *TMWord, oldVal, oldSeq, newVal, newSeq uint64) bool
