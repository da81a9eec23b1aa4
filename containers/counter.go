package containers

import "onefile/internal/tm"

// Counter is a transactional counter living directly in one of the engine's
// root slot words — no descriptor, no allocation, just the word: an
// increment is a one-word read-modify-write transaction.
//
// Like every container, a Counter is crash-durable on the persistent
// engines: re-attach after a crash and NewCounter finds the old value.
type Counter struct {
	e    Engine
	word Ptr
	// incBody is built once so the steady-state Inc performs zero Go heap
	// allocations (the closure would otherwise escape on every call).
	incBody func(Tx) uint64
}

// NewCounter attaches to root slot rootSlot of e. The slot's word is the
// counter value; a fresh slot reads as zero.
func NewCounter(e Engine, rootSlot int) *Counter {
	c := &Counter{e: e, word: tm.Root(rootSlot)}
	c.incBody = func(tx Tx) uint64 {
		v := tx.Load(c.word) + 1
		tx.Store(c.word, v)
		return v
	}
	return c
}

// Inc adds one and returns the new value. Allocation-free in steady state
// (the containers test suite pins this with testing.AllocsPerRun).
func (c *Counter) Inc() uint64 {
	return c.e.Update(c.incBody)
}

// Add adds delta and returns the new value. Unlike Inc it builds its body
// closure per call (delta must be captured); use Inc on hot paths.
func (c *Counter) Add(delta uint64) uint64 {
	return c.e.Update(func(tx Tx) uint64 {
		v := tx.Load(c.word) + delta
		tx.Store(c.word, v)
		return v
	})
}

// Value returns the current value (a read-only transaction).
func (c *Counter) Value() uint64 {
	return c.e.Read(func(tx Tx) uint64 { return tx.Load(c.word) })
}

// IncTx increments inside the caller's transaction and returns the new value.
func (c *Counter) IncTx(tx Tx) uint64 {
	v := tx.Load(c.word) + 1
	tx.Store(c.word, v)
	return v
}

// AddTx adds delta inside the caller's transaction and returns the new value.
func (c *Counter) AddTx(tx Tx, delta uint64) uint64 {
	v := tx.Load(c.word) + delta
	tx.Store(c.word, v)
	return v
}
