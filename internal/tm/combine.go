package tm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the engine-neutral face of the group-commit combining layer.
// Engines that can merge independently submitted update operations into one
// physical transaction (one commit pipeline, one persistence-fence round)
// implement Combining; AsyncUpdate and Batch are the entry points callers
// use, with a per-operation fallback for engines that cannot combine.

// Future is the pending result of a combinable update submission. The zero
// value is ready to use. A Future is resolved exactly once, by the engine;
// callers only read it (Wait/Done). Waiters allocate the wake channel
// lazily, so a submission that completes before anyone blocks — a solo
// submitter's — never touches the channel machinery.
type Future struct {
	state atomic.Uint32 // 0 pending, 1 resolved (release-stores val/err)
	val   uint64
	err   error
	ch    atomic.Pointer[chan struct{}]
}

// Resolve completes the future with (val, err) and wakes every waiter.
// It is engine-internal: exactly one Resolve per Future, never from user
// code.
func (f *Future) Resolve(val uint64, err error) {
	f.val, f.err = val, err
	f.state.Store(1)
	// A waiter that installed its channel before the store above is seen
	// here; one that installs after re-checks state and never blocks.
	if p := f.ch.Load(); p != nil {
		close(*p)
	}
}

// Reset returns a resolved future to its unresolved state for reuse. Only
// the owner may call it, and only once every waiter of the previous use has
// returned from Wait — the caller's synchronisation (it held those waiters'
// results) is what makes the plain stores safe.
func (f *Future) Reset() {
	f.state.Store(0)
	f.ch.Store(nil)
	f.val, f.err = 0, nil
}

// Done reports whether the result is available without blocking.
func (f *Future) Done() bool { return f.state.Load() == 1 }

// Wait blocks until the future resolves and returns its result. The error
// is nil on success, ErrEngineClosed if the engine shut down before the
// operation ran, ErrTooManyStores if the operation alone overflows the
// write-set, or the operation body's own panic value (wrapped if it was not
// an error).
func (f *Future) Wait() (uint64, error) {
	if f.state.Load() == 1 {
		return f.val, f.err
	}
	ch := make(chan struct{})
	if !f.ch.CompareAndSwap(nil, &ch) {
		ch = *f.ch.Load() // another waiter got there first; share its channel
	}
	if f.state.Load() == 1 {
		// The resolver may have loaded a nil channel pointer just before
		// our install; its state store is visible, so the result is too.
		return f.val, f.err
	}
	<-ch
	return f.val, f.err
}

// BatchResult is one operation's outcome in a Batch call.
type BatchResult struct {
	Val uint64
	Err error
}

// Combining is implemented by engines with a group-commit combiner: the
// four OneFile variants. Submitted operations are executed exactly once,
// possibly merged with other submissions into a single engine transaction
// (sharing its commit CAS, apply pass and persistence fences), in
// submission order within a batch. Operation bodies have the same contract
// as Update bodies — they may run several times and on other goroutines —
// and must not themselves submit to or wait on the same engine's combiner.
type Combining interface {
	Engine
	// AsyncUpdate submits fn for execution and returns its future. When
	// the combiner is idle the caller runs fn itself (the solo fast path:
	// the future is resolved on return); otherwise the active combiner
	// picks it up. Body panics are delivered as the future's error, not
	// re-raised on the submitter.
	AsyncUpdate(fn func(Tx) uint64) *Future
	// BatchUpdate submits every fn, lets the combiner merge them into as
	// few engine transactions as the batch bound allows, and waits for
	// all results. Operations that fall inside one combined transaction
	// commit and (on persistent engines) become durable atomically.
	BatchUpdate(fns []func(Tx) uint64) []BatchResult
}

// AsyncUpdate submits fn to e's combiner when it has one. For an engine
// without a combiner fn runs synchronously; the returned future is already
// resolved.
func AsyncUpdate(e Engine, fn func(Tx) uint64) *Future {
	if c, ok := e.(Combining); ok {
		return c.AsyncUpdate(fn)
	}
	f := &Future{}
	f.Resolve(e.Update(fn), nil)
	return f
}

// Batch runs every fn as an update operation and returns their results in
// order. On a Combining engine the operations are merged into as few
// physical transactions as possible (amortising the commit pipeline and,
// on PTMs, the fence round); elsewhere each fn is its own Update and the
// batch carries no atomicity (a panic propagates, exactly as Update).
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
