// Package he implements the Hazard Eras memory-reclamation scheme
// (Ramalhete & Correia, SPAA 2017) for the hand-made lock-free baselines'
// nodes (internal/lockfree). The paper also uses it for the wait-free
// engine's closures (§IV-B); here the garbage collector frees those.
//
// Each participating thread slot announces the era it is operating in; a
// retired object may only be reclaimed once its lifetime [birth era,
// retire era] does not intersect any announced era.
//
// Go's garbage collector would make use-after-reclaim impossible anyway, so
// the scheme's free callbacks typically just poison a flag — which turns the
// reclamation protocol into something tests can verify: if an object is ever
// observed poisoned while era-protected, the protocol is broken.
package he

import "sync/atomic"

// None is the era announced by an idle slot.
const None = ^uint64(0)

// reclaimThreshold is how many retired objects a slot accumulates before it
// attempts a reclamation scan.
const reclaimThreshold = 64

type retired struct {
	birth  uint64
	retire uint64
	free   func()
}

type slotState struct {
	era atomic.Uint64
	_   [7]uint64 // avoid false sharing between announcement words
}

// Eras is a hazard-era domain for a fixed number of thread slots.
type Eras struct {
	slots []slotState
	// era is the domain's clock: callers read it for the eras they
	// announce and stamp, and tick it when they create or retire objects.
	era atomic.Uint64
	// retired lists are owner-private per slot (no locking needed).
	lists     [][]retired
	reclaimed atomic.Uint64
}

// New creates a hazard-era domain with n thread slots.
func New(n int) *Eras {
	e := &Eras{
		slots: make([]slotState, n),
		lists: make([][]retired, n),
	}
	for i := range e.slots {
		e.slots[i].era.Store(None)
	}
	e.era.Store(1)
	return e
}

// Era returns the domain clock's current era.
func (e *Eras) Era() uint64 { return e.era.Load() }

// Advance ticks the domain clock and returns the new era. Structures using
// the internal clock call it when they create or retire objects.
func (e *Eras) Advance() uint64 { return e.era.Add(1) }

// Protect announces that slot is operating in era. All objects alive during
// that era are guaranteed not to be reclaimed until Clear.
func (e *Eras) Protect(slot int, era uint64) { e.slots[slot].era.Store(era) }

// Clear withdraws slot's announcement.
func (e *Eras) Clear(slot int) { e.slots[slot].era.Store(None) }

// Retire hands an object to the domain for deferred reclamation. birth is
// the era the object became reachable, retire the era it was unlinked, and
// free runs when no announced era overlaps [birth, retire]. Retire must be
// called from the goroutine owning slot.
func (e *Eras) Retire(slot int, birth, retire uint64, free func()) {
	e.lists[slot] = append(e.lists[slot], retired{birth: birth, retire: retire, free: free})
	if len(e.lists[slot]) >= reclaimThreshold {
		e.Scan(slot)
	}
}

// Scan attempts to reclaim slot's retired objects. It is wait-free: one
// bounded pass over the announcement array per retired object.
func (e *Eras) Scan(slot int) {
	list := e.lists[slot]
	kept := list[:0]
	for _, r := range list {
		if e.overlaps(r.birth, r.retire) {
			kept = append(kept, r)
			continue
		}
		r.free()
		e.reclaimed.Add(1)
	}
	// Zero the tail so reclaimed entries don't pin their closures.
	for i := len(kept); i < len(list); i++ {
		list[i] = retired{}
	}
	e.lists[slot] = kept
}

func (e *Eras) overlaps(birth, retire uint64) bool {
	for i := range e.slots {
		a := e.slots[i].era.Load()
		if a != None && a >= birth && a <= retire {
			return true
		}
	}
	return false
}

// Reclaimed returns the number of objects reclaimed so far (test aid).
func (e *Eras) Reclaimed() uint64 { return e.reclaimed.Load() }
