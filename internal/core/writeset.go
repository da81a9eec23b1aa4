package core

import (
	"sync/atomic"

	"onefile/internal/tm"
)

// linearMax is the write-set size up to which lookups scan the entry array
// linearly; beyond it the intrusive hash index is used (paper §III-A: "short
// transactions (less than 40 stores) do a linear lookup").
const linearMax = 40

// wsFirst is the number of entries the owner-private half of a write-set
// holds when its slot's first store allocates it; wsGrow is the factor it
// grows by, up to the configured MaxStores, when a transaction needs more. A
// slot nobody claims holds nothing, and one that only ever runs short
// transactions holds wsFirst entries and no hash index.
const (
	wsFirst = 64
	wsGrow  = 2
)

// writeSet is a thread slot's redo log: the paper's WriteSet (Alg. 1).
//
// The entries themselves — (address, value) word pairs plus the store count
// — live in a shared atomic array so helper threads can copy them during
// the apply phase; on the persistent engines that array is a window into
// the emulated NVM device. Everything else (the count under construction,
// the hash index, and a plain mirror of the entries) is owner-private: the
// whole transform phase works on the mirror with ordinary loads and stores,
// and publish() copies the final entries into the shared array once, just
// before the request opens — helpers never look earlier.
//
// The shared array is sized for MaxStores from the start (it is the paper's
// log, at a fixed place in the device). The owner-private half grows with the
// transactions the slot runs (grow) and keeps what it has grown to: len(keys)
// is its current capacity, cap the limit.
type writeSet struct {
	num *atomic.Uint64  // shared store count (numStores), published at commit
	ent []atomic.Uint64 // shared entries: ent[2i] = stamped address, ent[2i+1] = value

	keys []uint64 // owner-private address mirror (keys[i] == ent[2i])
	vals []uint64 // owner-private value mirror (vals[i] == ent[2i+1])

	n   int // owner-private count during the transform phase
	cap int // the store count this transaction may not exceed
	// limit is what reset sets cap to: the engine's per-body store limit
	// (Engine.MaxStores). A wait-free aggregate raises cap to the log's full
	// MaxStores for itself (aggregateBody): the two entries above limit are
	// the result words it reserves beside the operation it executes.
	limit int

	// summary is a one-word superset of the addresses held: summaryBit(a) is
	// set for every entry's address a. A load whose bit is clear is answered
	// "absent" without a scan or a hash — on a wait-free aggregate, which
	// reserves its result words before any body runs, that is nearly every
	// load of a tree walk. reset clears it; rollbackTo leaves it as it is,
	// which is still a superset.
	summary uint64

	// Intrusive hash index, owner-private, versioned so reset is O(1). It is
	// allocated, for the capacity of the moment, by the first transaction
	// that crosses linearMax (buildHash).
	buckets []int32
	bver    []uint32
	next    []int32
	ver     uint32
	mask    uint32
	hashed  bool

	// Replacement undo log, recorded only while a combined transaction
	// is executing (beginUndo): rollbackTo needs the pre-image of every
	// in-place value replacement to unwind one operation's stores without
	// discarding its batchmates'. Appends need no undo — truncation
	// discards them.
	recording bool
	undoIdx   []int32
	undoVal   []uint64
}

func newWriteSet(num *atomic.Uint64, ent []atomic.Uint64, limit int) writeSet {
	return writeSet{num: num, ent: ent, cap: limit, limit: limit}
}

// grow makes room for one more entry: wsFirst entries at first, then wsGrow
// times what there is, clamped to cap — where it panics with
// tm.ErrTooManyStores instead, also when the entries grown for an earlier,
// wider cap have room left. The hash index is sized by the capacity, so it
// is dropped, and rebuilt if this transaction is using it: buildHash links
// the entries in entry order, which is the order they were linked in the
// first time, so every chain still has its newest entry at the head — what
// rollbackTo's unlinking rests on.
func (w *writeSet) grow() {
	if w.n >= w.cap {
		panic(tm.ErrTooManyStores)
	}
	size := min(max(wsGrow*len(w.keys), wsFirst), w.cap)
	keys, vals := make([]uint64, size), make([]uint64, size)
	copy(keys, w.keys)
	copy(vals, w.vals)
	w.keys, w.vals = keys, vals
	w.buckets, w.bver, w.next = nil, nil, nil
	if w.hashed {
		w.buildHash()
	}
}

// reset discards the write-set for a new transform phase.
func (w *writeSet) reset() {
	w.n = 0
	w.cap = w.limit
	w.summary = 0
	w.hashed = false
	w.recording = false
	w.ver++
	if w.ver == 0 { // version wrapped: invalidate all buckets the slow way
		clear(w.bver)
		w.ver = 1
	}
}

func hashAddr(a uint64) uint32 {
	a *= 0x9E3779B97F4A7C15
	return uint32(a >> 33)
}

func (w *writeSet) bucket(a uint64) *int32 {
	b := hashAddr(a) & w.mask
	if w.bver[b] != w.ver {
		w.bver[b] = w.ver
		w.buckets[b] = -1
	}
	return &w.buckets[b]
}

// summaryBit maps an address to its bit of writeSet.summary: the low address
// bits, which tell apart the fields of a node and neighbouring nodes — the
// addresses one transaction touches. A multiplicative hash measured no
// better on BenchmarkWriteSetLookup{Miss,Linear,Hashed}, so the cheaper one.
func summaryBit(addr uint64) uint64 { return 1 << (addr & 63) }

// mayHold reports whether addr can be in the write-set; false is exact. It
// inlines, so a load the summary rules out costs its caller no call.
func (w *writeSet) mayHold(addr uint64) bool { return w.summary&summaryBit(addr) != 0 }

// lookup returns the pending value stored for addr, if any. Loads inside an
// update transaction consult it first so a transaction reads its own writes.
// Only the owner calls it, so it reads the plain mirror — no atomic ops.
func (w *writeSet) lookup(addr uint64) (uint64, bool) {
	if !w.mayHold(addr) {
		return 0, false
	}
	if !w.hashed {
		for i, k := range w.keys[:w.n] {
			if k == addr {
				return w.vals[i], true
			}
		}
		return 0, false
	}
	for i := *w.bucket(addr); i >= 0; i = w.next[i] {
		if w.keys[i] == addr {
			return w.vals[i], true
		}
	}
	return 0, false
}

// addOrReplace records a store of val to addr, replacing any pending store
// to the same address (paper §III-A). Lookups go through the plain mirror;
// a recorded store writes mirror and shared array both. It panics with
// tm.ErrTooManyStores if the transaction exceeds the configured write-set
// capacity.
func (w *writeSet) addOrReplace(addr, val uint64) {
	if !w.mayHold(addr) {
		// A first store to addr: nothing to replace, no search.
	} else if !w.hashed {
		for i, k := range w.keys[:w.n] {
			if k == addr {
				w.replace(i, val)
				return
			}
		}
	} else {
		for i := *w.bucket(addr); i >= 0; i = w.next[i] {
			if w.keys[i] == addr {
				w.replace(int(i), val)
				return
			}
		}
	}
	if w.n >= len(w.keys) || w.n >= w.cap {
		w.grow()
	}
	i := w.n
	w.keys[i], w.vals[i] = addr, val
	w.n++
	w.summary |= summaryBit(addr)
	if w.hashed {
		b := w.bucket(addr)
		w.next[i] = *b
		*b = int32(i)
	} else if w.n > linearMax {
		w.buildHash()
	}
}

// buildHash indexes the existing entries once the linear threshold is
// crossed, allocating the index if the slot has none for its capacity.
func (w *writeSet) buildHash() {
	if w.next == nil {
		nb := 1
		for nb < 2*len(w.keys) {
			nb <<= 1
		}
		w.buckets = make([]int32, nb)
		w.bver = make([]uint32, nb)
		w.next = make([]int32, len(w.keys))
		w.mask = uint32(nb - 1)
	}
	w.hashed = true
	for i := 0; i < w.n; i++ {
		b := w.bucket(w.keys[i])
		w.next[i] = *b
		*b = int32(i)
	}
}

// publish copies the final entries into the shared log and makes the store
// count visible to helpers (called just before the request is opened — the
// only point the shared array has to agree with the mirror). Deferring the
// copy keeps the transform phase free of shared-array traffic: a combined
// transaction that replaces a hot word hundreds of times pays exactly one
// shared store for it here.
//
// stamp (logStamp) is OR-ed into the address word of every entry beyond the
// log's first cache line: it names the transaction the entry belongs to, so
// a replay never mistakes a later attempt's entry for its own.
//
// Addresses and the entry count are only re-stored when they changed: these
// words are owner-written, so an equal readback is this slot's own earlier
// (already globally visible) store, and a repeated update to the same few
// words — the steady state of a hot counter — pays one barrier per entry
// instead of two, plus none for the count.
func (w *writeSet) publish(stamp uint64) {
	for i := 0; i < w.n; i++ {
		a := w.keys[i]
		if i >= headEntries {
			a |= stamp
		}
		if w.ent[2*i].Load() != a {
			w.ent[2*i].Store(a)
		}
		w.ent[2*i+1].Store(w.vals[i])
	}
	if w.num.Load() != uint64(w.n) {
		w.num.Store(uint64(w.n))
	}
}

// replace overwrites entry i's pending value, recording the pre-image when
// a combined transaction is executing.
func (w *writeSet) replace(i int, val uint64) {
	if w.recording {
		w.undoIdx = append(w.undoIdx, int32(i))
		w.undoVal = append(w.undoVal, w.vals[i])
	}
	w.vals[i] = val
}

// wsMark is a checkpoint of the write-set taken between two operations of a
// combined transaction.
type wsMark struct {
	n    int
	undo int
}

// beginUndo arms replacement recording for a combined-transaction body.
// reset() disarms it, so ordinary transactions never pay for the undo log.
// Called at the start of every execution of the body (executions on the
// wait-free engines may run on helper goroutines, each against its own
// slot's write-set). An enclosing scope may have armed it already: a batch
// executing inside a wait-free aggregate.
func (w *writeSet) beginUndo() {
	if w.recording {
		// Truncating here would invalidate marks the aggregate took before
		// this operation; keep the outer scope's entries (reset() disarms).
		return
	}
	w.recording = true
	w.undoIdx = w.undoIdx[:0]
	w.undoVal = w.undoVal[:0]
}

// mark checkpoints the write-set before one operation of a combined
// transaction runs.
func (w *writeSet) mark() wsMark { return wsMark{n: w.n, undo: len(w.undoIdx)} }

// rollbackTo unwinds every store recorded since m: replacements are undone
// newest-first (restoring the value each entry held at the mark), then the
// entries appended since the mark are unlinked from the hash index and
// truncated. Unlinking newest-first keeps the intrusive chains exact: an
// appended entry is always at the head of its bucket once every later
// entry has been removed.
func (w *writeSet) rollbackTo(m wsMark) {
	for i := len(w.undoIdx) - 1; i >= m.undo; i-- {
		w.vals[w.undoIdx[i]] = w.undoVal[i]
	}
	w.undoIdx = w.undoIdx[:m.undo]
	w.undoVal = w.undoVal[:m.undo]
	for i := w.n - 1; i >= m.n; i-- {
		if w.hashed {
			b := w.bucket(w.keys[i])
			*b = w.next[i]
		}
	}
	w.n = m.n
}
