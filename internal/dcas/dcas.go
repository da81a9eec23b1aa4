// Package dcas provides the double-word compare-and-swap (CMPXCHG16B) that
// the OneFile algorithm performs on its two-word TMType {value, sequence}.
//
// Two types live here:
//
//   - TMWord is the engine's TM word. On amd64 (without the race detector)
//     it is the paper's layout — two adjacent 64-bit words, 16 bytes, no
//     pointer — and CompareAndSwap is one LOCK CMPXCHG16B (tmword_amd64.go,
//     tmword_amd64.s). On every other build it is the pointer emulation
//     below with a fresh Pair per DCAS left to the garbage collector
//     (tmword_fallback.go). The API is identical; the build constraint
//     chooses.
//   - Word is the pointer emulation itself: an atomic.Pointer to an
//     immutable Pair. Swinging the pointer with a single-word CAS changes
//     value and sequence together with exactly the atomicity of a hardware
//     DCAS, and a reader obtains an un-torn snapshot of both words by loading
//     one pointer. It is the portable TMWord's building block and the cell
//     type of internal/lockfree's LCRQ.
//
// ABA freedom rests on the algorithm's monotonically increasing sequence in
// both; Word's pointer identity merely adds a second, independent guard (two
// distinct Pair allocations never compare equal even if they hold the same
// numbers).
package dcas

import "sync/atomic"

// Pair is an immutable {value, sequence} snapshot of a Word. A published
// Pair must never be mutated.
type Pair struct {
	Val uint64
	Seq uint64
}

// Image is the layout of a TM word's image kept outside this package — the
// device's volatile pair view (pmem.Pair) — named by its underlying type, so
// that this package imports nothing to name it: the value, then the sequence,
// 16 bytes, no pointer. SlabOver lays TM words over memory of this type.
type Image interface{ ~struct{ Val, Seq uint64 } }

// Zero is the canonical {0,0} pair returned by Snapshot for never-written
// words. It is shared by every Word and must never be mutated.
var Zero = &Pair{}

// Word is one pointer-emulated two-word cell. The zero value is a word
// holding value 0 at sequence 0.
type Word struct {
	p atomic.Pointer[Pair]
}

// Snapshot returns the current {value, sequence} pair.
func (w *Word) Snapshot() *Pair {
	if p := w.p.Load(); p != nil {
		return p
	}
	return Zero
}

// Load returns the current value and sequence.
func (w *Word) Load() (val, seq uint64) {
	p := w.Snapshot()
	return p.Val, p.Seq
}

// Seq returns the current sequence only.
func (w *Word) Seq() uint64 {
	return w.Snapshot().Seq
}

// CompareAndSwap atomically replaces the word's pair with {val, seq} if the
// current pair is exactly old (pointer identity). It reports whether the
// swap happened. The early exit skips the Pair allocation when the word
// visibly moved on — under contention that is the common failure mode, and
// the allocation is the whole cost of the emulated DCAS.
func (w *Word) CompareAndSwap(old *Pair, val, seq uint64) bool {
	if old != Zero && w.p.Load() != old {
		return false
	}
	return w.CompareAndSwapPair(old, &Pair{Val: val, Seq: seq})
}

// CompareAndSwapPair is CompareAndSwap with a caller-supplied new pair n.
// On success n is published and owned by the word; on failure n stays
// private to the caller and may be reused immediately. n must not alias old
// or Zero, and a published pair may be rewritten only once no reader can
// still hold a pointer to it.
func (w *Word) CompareAndSwapPair(old, n *Pair) bool {
	if old == Zero {
		// The word may still hold a nil pointer (never written) or an
		// explicit zero pair installed by Reset; both denote {0,0}.
		if w.p.CompareAndSwap(nil, n) {
			return true
		}
		cur := w.p.Load()
		return cur != nil && *cur == Pair{} && w.p.CompareAndSwap(cur, n)
	}
	return w.p.CompareAndSwap(old, n)
}

// Store unconditionally publishes {val, seq}. Initialisation only, never
// during concurrent operation.
func (w *Word) Store(val, seq uint64) {
	w.p.Store(&Pair{Val: val, Seq: seq})
}

// Reset returns the word to {0, 0}. Initialisation only.
func (w *Word) Reset() {
	w.p.Store(Zero)
}
