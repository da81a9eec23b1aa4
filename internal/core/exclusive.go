package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"onefile/internal/tm"
)

// This file is the engine's exclusivity gate: the prepare/decide hook the
// sharded store (internal/shard) layers its cross-shard commit protocol on.
//
// A cross-shard transaction needs a window in which one coordinator can
// read a shard's committed state and run a handful of transactions on it
// with no concurrent committers — otherwise the per-shard prepare/apply
// steps of the two-phase commit could interleave with independent
// single-shard updates and tear them (a redo replayed after an intervening
// single-shard write would stomp it). The gate provides that window
// without touching the transaction hot path's structure:
//
//   - acquire() checks one padded atomic (gate) after claiming a slot —
//     the same single-load-plus-predicted-branch cost pattern as the
//     observability pointer (obs.go). Unobserved single-shard
//     transactions pay exactly that load and nothing else.
//   - BeginExclusive closes the gate and then drains: it waits until no
//     slot is claimed and no anti-starvation pass is outstanding. Every
//     transaction — direct, combined, helping, wait-free aggregate — runs
//     entirely under a slot claim and closes the committed request before
//     releasing it, so an empty claim map means the heap is quiescent and
//     fully applied. The passes (granted by EndExclusive to every parked
//     acquirer, consumed at the holder's next claim) guarantee each
//     gated waiter one whole transaction between consecutive exclusive
//     sections, so back-to-back cross-shard commits cannot starve
//     single-shard writers.
//   - The holder then operates through UpdateExclusive (a normal engine
//     transaction on the regular commit path, so persistence and recovery
//     semantics are exactly those of any other transaction) and
//     LoadDirect (a plain committed-state read, safe only because the
//     drain ruled out concurrent appliers).
//
// Memory-ordering note (the Dekker pair): an acquirer claims with a
// sequentially consistent CAS and then loads gate; BeginExclusive stores
// gate with a sequentially consistent store and then loads every claim
// flag. In the total order of those operations either the acquirer's gate
// load observes the store (it backs off and parks on the gate) or its
// claim CAS precedes the drain scan's load (the drain waits for it). A
// claim can therefore never run concurrently with a drained exclusive
// section.

// atomic32pad is an atomic.Uint32 alone on its cache line.
type atomic32pad struct {
	v atomic.Uint32
	_ [60]byte
}

// exclusive is the gate state. The gate word is read on every acquire and
// padded onto its own line; everything else is cold.
type exclusive struct {
	gate atomic32pad

	// holderMu serialises exclusive sections: BeginExclusive locks it,
	// EndExclusive unlocks it. The sharded store acquires shards in index
	// order, so cross-shard transactions over overlapping shard sets
	// queue here instead of deadlocking.
	holderMu sync.Mutex

	// waitMu/waitCond park acquirers that observed a closed gate. The
	// condition is re-checked under waitMu; EndExclusive and Close
	// broadcast under it, so no wakeup is lost.
	waitMu   sync.Mutex
	waitCond *sync.Cond

	// Anti-starvation passes. Without them, a caller looping
	// BeginExclusive/EndExclusive back to back reopens the gate for only
	// the instants between sections, and on a narrow host a parked
	// acquirer essentially never observes it open — cross-shard traffic
	// could then starve single-shard writers indefinitely. EndExclusive
	// therefore grants every waiter parked at reopen time one pass: a
	// claim that skips the gate check once. The next BeginExclusive's
	// drain waits for every outstanding pass to be consumed (grant and
	// consumption bracket the claim CAS), so each previously parked
	// acquirer completes one full transaction between consecutive
	// exclusive sections. grants/parked are guarded by waitMu; passes is
	// the drain-visible count, moved before holderMu is released.
	parked int
	grants int
	passes atomic.Int32

	// Pad the struct to a whole number of cache lines, so embedding it in
	// Engine does not shift the line offsets of the padded hot fields
	// declared after it (curTx, claimHint).
	_ [20]byte
}

// The sizing the padding above maintains; fails to compile if exclusive
// stops being a multiple of the 64-byte line.
const _ uintptr = -(unsafe.Sizeof(exclusive{}) % 64)

func (x *exclusive) init() { x.waitCond = sync.NewCond(&x.waitMu) }

// BeginExclusive closes the engine to new transactions and waits for every
// in-flight one to finish. On return the caller holds the engine
// exclusively: the heap is quiescent with all committed write-sets fully
// applied, and stays that way until EndExclusive. Concurrent
// BeginExclusive callers serialise; acquisition over multiple engines must
// use a consistent order (the sharded store uses shard index order).
// Panics with tm.ErrEngineClosed on a closed engine.
func (e *Engine) BeginExclusive() {
	x := &e.excl
	x.holderMu.Lock()
	if e.closed.Load() {
		x.holderMu.Unlock()
		panic(tm.ErrEngineClosed)
	}
	x.gate.v.Store(1)
	// Drain: wait for every claimed slot to release and every granted
	// anti-starvation pass to be consumed. Parked acquirers hold no
	// claim, so this terminates as soon as the currently running
	// transactions — including the one guaranteed transaction of each pass
	// holder — commit or abort. The passes load
	// precedes the claim scan: a consumed pass's claim CAS is ordered
	// before its passes decrement, so a zero passes count means every
	// pass holder's claim is visible to the scan (or already released).
	for {
		busy := x.passes.Load() != 0
		if !busy {
			for i := range e.slots {
				if e.slots[i].claimed.Load() != 0 {
					busy = true
					break
				}
			}
		}
		if !busy {
			return
		}
		runtime.Gosched()
	}
}

// EndExclusive reopens the engine and wakes every acquirer parked on the
// gate, granting each one anti-starvation pass. The passes are registered
// before holderMu is released, so the next exclusive section's drain
// cannot start until every one is consumed.
func (e *Engine) EndExclusive() {
	x := &e.excl
	x.waitMu.Lock()
	x.grants += x.parked
	x.passes.Add(int32(x.parked))
	x.gate.v.Store(0)
	x.waitCond.Broadcast()
	x.waitMu.Unlock()
	x.holderMu.Unlock()
}

// gateWait parks the calling acquirer until the gate opens or a pass is
// available, and reports whether it holds a pass (a one-shot license to
// claim through a closed gate; the caller must decrement passes after its
// claim CAS). A pass may be taken by an acquirer that arrives between the
// grant and the intended waiter's wakeup — that changes who gets through,
// not whether someone does. Fails fast when the engine closes while
// parked (Close broadcasts the condition).
func (e *Engine) gateWait() bool {
	x := &e.excl
	pass := false
	x.waitMu.Lock()
	for !e.closed.Load() {
		if x.grants > 0 {
			x.grants--
			pass = true
			break
		}
		if x.gate.v.Load() == 0 {
			break
		}
		x.parked++
		x.waitCond.Wait()
		x.parked--
	}
	x.waitMu.Unlock()
	if e.closed.Load() {
		panic(tm.ErrEngineClosed)
	}
	return pass
}

// gateBroadcast wakes gate waiters without opening the gate (Close path).
func (e *Engine) gateBroadcast() {
	x := &e.excl
	if x.waitCond == nil {
		return
	}
	x.waitMu.Lock()
	x.waitCond.Broadcast()
	x.waitMu.Unlock()
}

// UpdateExclusive runs fn as an update transaction while the caller holds
// the engine exclusively (between BeginExclusive and EndExclusive). It
// uses the regular commit path — write-set publication, curTx advance,
// apply, flush — so durability and recovery behave exactly as for any
// other transaction; with the gate closed the first attempt always
// commits. The lock-free loop is used even on the wait-free engines:
// operation publication exists to bound interference from concurrent
// committers, of which there are none here.
func (e *Engine) UpdateExclusive(fn func(tx tm.Tx) uint64) uint64 {
	return e.run(fn, modeExclusive)
}

// LoadDirect returns the committed value of heap word p. Only valid while
// the caller holds the engine exclusively: the drain guarantees every
// committed write-set is fully applied, so a plain word read is the
// committed state.
func (e *Engine) LoadDirect(p tm.Ptr) uint64 {
	e.checkPtr(p)
	v, _ := e.words[p].Load()
	return v
}

// CurSeq returns the current transaction sequence number — the length of
// this engine's committed-transaction stream. The sharded benchmark reads
// it per engine to measure per-shard commit-stream rates.
func (e *Engine) CurSeq() uint64 { return seqOf(e.curTx.Load()) }

// HeapWords returns the configured heap size (sharded-store sizing aid).
func (e *Engine) HeapWords() int { return e.cfg.HeapWords }

// MaxStores returns the most distinct words one transaction body may store:
// the configured MaxStores, less two on a wait-free engine. There every
// update, published or not, is held to what fits beside the two result
// words an aggregate reserves for it, so whether a body fits does not depend
// on contention (tm.ErrTooManyStores).
func (e *Engine) MaxStores() int {
	if e.waitFree {
		return max(e.cfg.MaxStores-2, 0)
	}
	return e.cfg.MaxStores
}
