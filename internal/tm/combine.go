package tm

import (
	"fmt"
	"sync"
)

// This file is the engine-neutral face of the batch entries. Engines that
// can run several update operations as one physical transaction (one commit
// pipeline, one persistence-fence round) implement Combining; AsyncUpdate
// and Batch are the entry points callers use, with a per-operation fallback
// for engines that cannot.

// Future is the result of an AsyncUpdate. The operation has run before
// AsyncUpdate returns, so a Future is always resolved and Wait never
// blocks.
type Future struct {
	val uint64
	err error
}

// Resolve sets the future's result. It is engine-internal: one call, before
// the future is returned.
func (f *Future) Resolve(val uint64, err error) { f.val, f.err = val, err }

// Wait returns the future's result. The error is nil on success,
// ErrEngineClosed if the engine was closed, ErrTooManyStores if the
// operation alone overflows the write-set, or the operation body's own
// panic value (wrapped if it was not an error).
func (f *Future) Wait() (uint64, error) { return f.val, f.err }

// BatchResult is one operation's outcome in a Batch call.
type BatchResult struct {
	Val uint64
	Err error
}

// Combining is implemented by engines that run a batch of update
// operations as one transaction: the four OneFile variants. Each operation
// is executed exactly once, in order within its batch, and the operations
// of one transaction share its commit CAS, apply pass and persistence
// fences. Operation bodies have the same contract as Update bodies — they
// may run several times and on other goroutines.
type Combining interface {
	Engine
	// AsyncUpdate runs fn as a batch of one on the caller and returns its
	// resolved future. It has Update's progress bounds. Body panics are
	// delivered as the future's error, not re-raised on the caller.
	AsyncUpdate(fn func(Tx) uint64) *Future
	// BatchUpdate runs every fn on the caller, in order, in as few engine
	// transactions as the batch bound allows, and returns all results.
	// Operations that fall inside one transaction commit and (on
	// persistent engines) become durable atomically.
	BatchUpdate(fns []func(Tx) uint64) []BatchResult
}

// AsyncUpdate runs fn through e's AsyncUpdate when e is Combining, and as
// an Update otherwise; either way the returned future is resolved.
func AsyncUpdate(e Engine, fn func(Tx) uint64) *Future {
	if c, ok := e.(Combining); ok {
		return c.AsyncUpdate(fn)
	}
	f := &Future{}
	f.Resolve(e.Update(fn), nil)
	return f
}

// Batch runs every fn as an update operation and returns their results in
// order. On a Combining engine the operations share as few physical
// transactions as the batch bound allows (amortising the commit pipeline
// and, on PTMs, the fence round); elsewhere each fn is its own Update and
// the batch carries no atomicity (a panic propagates, exactly as Update).
func Batch(e Engine, fns []func(Tx) uint64) []BatchResult {
	if c, ok := e.(Combining); ok {
		return c.BatchUpdate(fns)
	}
	out := make([]BatchResult, len(fns))
	for i, fn := range fns {
		out[i] = BatchResult{Val: e.Update(fn)}
	}
	return out
}

// PanicError converts a recovered panic value into the error a future
// carries: errors pass through unchanged (sentinels like ErrHeapFull stay
// comparable), anything else is wrapped.
func PanicError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("tm: operation body panicked: %v", r)
}

// Collect runs body as a transaction through run (an engine's Update, Read
// or any entry of that shape) and returns the value of the execution that
// counted. A transaction body may execute several times — retries, and on
// the wait-free engines concurrently on helper goroutines, possibly still
// after run has returned — so a body must not deliver a result by writing
// variables it captured. Collect is the safe way out for results wider than
// the engine's one uint64: each execution appends its value under a mutex
// and returns its index, and the engine's scalar return, which does come
// from the committed execution, selects it.
//
// run may report a failed transaction by value instead of panicking — an
// AsyncUpdate future's Wait is the usual case — and then returns whatever
// scalar it likes: when that selects no execution (none may have completed)
// Collect returns the zero T, and the caller, who holds run's error, must
// not use it.
func Collect[T any](run func(func(Tx) uint64) uint64, body func(Tx) T) T {
	c := &collector[T]{body: body}
	c.vals = c.one[:0]
	win := run(c.exec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if win >= uint64(len(c.vals)) {
		var zero T
		return zero
	}
	return c.vals[win]
}

// collector is Collect's state, one allocation for the usual single
// execution (one backs vals until a second execution appends).
type collector[T any] struct {
	mu   sync.Mutex
	body func(Tx) T
	vals []T
	one  [1]T
}

func (c *collector[T]) exec(tx Tx) uint64 {
	v := c.body(tx)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vals = append(c.vals, v)
	return uint64(len(c.vals) - 1)
}
