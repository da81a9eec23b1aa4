// Package containers provides the transactional data structures the paper
// builds on OneFile (§V, §VI) and a few beyond it: a queue (Queue), a stack
// (Stack), a sorted linked-list set (ListSet), a hash set grown by linear
// hashing (HashSet), the paper's red-black tree set (RBTree), an ordered
// uint64 → uint64 map stored as a B+-tree (TreeMap), a double-ended queue
// (Deque) and a counter (Counter). Every container is written once against
// the engine-neutral tm interface, so the same code runs — with the
// progress and durability properties of the chosen engine — on all four
// OneFile variants and on every baseline PTM/STM in this repository. Where
// a read-only handle offers tm.RangeLoader, TreeMap reads a node in one
// call; everywhere else it loads word by word.
// On a wait-free engine these are wait-free containers; on a persistent
// engine their state survives crashes.
//
// Each container anchors itself in one of the engine's root slots. The
// constructors are attach-or-create: if the slot already holds a structure
// (for example after re-attaching a persistent engine following a crash),
// the existing structure is used.
//
// Every operation exists in two forms: a top-level method that runs its own
// transaction, and a *Tx method that participates in a caller-provided
// transaction, so multiple operations — even on different containers — can
// be composed atomically (the paper's two-queue transfer scenario, §V-B).
//
// Values and keys are uint64 below 2^63; the top bit is reserved to encode
// the ok flag of operations executed inside engine transactions.
package containers

import "onefile/internal/tm"

// Engine is the transactional-memory engine containers run on. It is the
// engine-neutral interface implemented by every STM/PTM in this repository
// (re-exported at the module root as onefile.Engine).
type Engine = tm.Engine

// Tx is a transaction handle passed to the *Tx composition methods.
type Tx = tm.Tx

// Ptr is a transactional heap pointer.
type Ptr = tm.Ptr

// MaxValue is the largest storable value or key: the top bit is reserved.
const MaxValue = 1<<63 - 1

const okBit = uint64(1) << 63

// pack encodes (v, ok) into the single word an engine transaction returns.
func pack(v uint64, ok bool) uint64 {
	if ok {
		return v | okBit
	}
	return v
}

// unpack decodes a pack()ed word.
func unpack(w uint64) (uint64, bool) { return w &^ okBit, w&okBit != 0 }

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// initRoot ensures the root slot holds a descriptor, creating it with mk
// inside a transaction if empty, and returns the descriptor pointer.
func initRoot(e Engine, slot int, mk func(tx Tx) Ptr) Ptr {
	return Ptr(e.Update(func(tx Tx) uint64 {
		r := tm.Root(slot)
		if d := tx.Load(r); d != 0 {
			return d
		}
		d := mk(tx)
		tx.Store(r, uint64(d))
		return uint64(d)
	}))
}
