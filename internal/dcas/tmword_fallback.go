//go:build !amd64 || race

package dcas

// Native reports whether TMWord is the flat 16-byte word under a hardware
// double-word CAS (true) or the pointer emulation (false).
const Native = false

// TMWord is one TM word: the paper's TMType, here a Word whose every DCAS
// installs a fresh Pair and leaves the replaced one to the garbage
// collector. Readers may hold a replaced pair as long as they like, so
// there is no grace period to track and nothing to recycle.
type TMWord struct {
	w Word
}

// NewSlab returns n TM words at {0, 0}.
func NewSlab(n int) []TMWord { return make([]TMWord, n) }

// SlabOver returns NewSlab(n), which holds only zeros. These words hold
// pointers, and memory of an Image type may hold none, so view is never
// called: a device whose engine runs on this build allocates no pair view.
func SlabOver[P Image](n int, view func() ([]P, bool)) (words []TMWord, zeroed bool) {
	return NewSlab(n), true
}

// ZeroWords sets every word of s to {0, 0}. These words hold pointers, which
// the garbage collector must see go, so they are cleared with stores.
func ZeroWords(s []TMWord) { clear(s) }

// Load returns the current value and sequence.
func (w *TMWord) Load() (val, seq uint64) { return w.w.Load() }

// Snapshot returns the current value and sequence; ok is always true (one
// pointer load cannot tear).
func (w *TMWord) Snapshot() (val, seq uint64, ok bool) {
	p := w.w.Snapshot()
	return p.Val, p.Seq, true
}

// CompareAndSwap atomically replaces {oldVal, oldSeq} with {newVal, newSeq}
// and reports whether it did. The pointer CAS succeeds only while the pair
// that was compared is still the installed one.
func (w *TMWord) CompareAndSwap(oldVal, oldSeq, newVal, newSeq uint64) bool {
	p := w.w.Snapshot()
	if p.Val != oldVal || p.Seq != oldSeq {
		return false
	}
	return w.w.CompareAndSwapPair(p, &Pair{Val: newVal, Seq: newSeq})
}

// Store unconditionally sets the word. Single-threaded initialisation and
// recovery only. {0, 0} is the shared zero pair, so recovery's walk, which
// stores every word, allocates nothing for the words the image holds zero.
func (w *TMWord) Store(val, seq uint64) {
	if val == 0 && seq == 0 {
		w.w.Reset()
		return
	}
	w.w.Store(val, seq)
}
