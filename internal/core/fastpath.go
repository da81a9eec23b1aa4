package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// This file is the small-transaction fast path (DESIGN.md §14). A
// transaction that stores at most two distinct words and neither allocates
// nor frees commits without the full §III-B machinery: no write-set
// structure, no log-line flush, no curTx-image flush, and no drains. What
// it keeps is exactly the part helpers depend on — the volatile redo log
// and the open request — so the helping protocol's invariant holds
// unchanged: any thread that observes the committed curTx can finish the
// transaction from the shared log, and no reader or aggregate ever sees a
// torn snapshot.
//
// Protocol (vs the ten steps of §III-B):
//
//  1. load curTx, help any pending transaction;
//  2. run the body against a register write-set (fTx): loads are
//     seq-validated exactly like uTx, stores land in two in-handle words;
//  3. publish the 1–2 log entries and numStores with plain atomic stores
//     (volatile — never flushed by the owner) and open the request;
//  4. commit by CASing curTx; on loss the request is left stale-open,
//     which is harmless — a stale identifier never matches a future curTx
//     (the same situation a full-path loser leaves behind);
//  5. apply the 1–2 words with the usual seq-guarded DCAS;
//  6. persistent variants only: ONE FlushPairLine covering the written
//     words (eligibility requires them to share a pair-region cache line)
//     + ONE Fence — the minimal 1 pwb + 1 pfence commit;
//  7. close the request with a plain CAS — no drain: the fence in step 6
//     already made the words durable.
//
// Durability argument (PTM): the fast path never flushes the curTx image,
// so after a crash the durable words may run AHEAD of the durable curTx —
// the inverse of the §III-D invariant. Recovery (engine.go attach) handles
// it by adoption: the maximum durable word sequence S is itself proof that
// every transaction before S completed (committing S required the previous
// request closed, and a fast request closes only after its flush+fence),
// and the words of S are durable all-or-nothing because they share one
// atomic line flush. attach therefore adopts curTx = S when the image lags.
//
// Flush snapshot guard: the owner flushes only word snapshots still at its
// own sequence. A snapshot beyond it — or torn, which means a newer DCAS is
// landing on the word right now — means a helper closed our request
// early (helpers flush all our words and drain before closing), so our
// transaction is already durable, and flushing the newer value would risk
// persisting a subset of a LATER fast transaction's writes — the one
// torn-state hazard of third-party flushes.
//
// Progress: UpdateSmall makes fastTries bounded attempts and then falls
// back to updateLF/updateWF, so the engine's lock-free/wait-free bounds
// are preserved; the fast path is an optimization layer, never a loop.

// fastTries is how many times UpdateSmall retries the fast path on
// conflict before falling back to the full engine.
const fastTries = 3

// fastStatus is tryFast's outcome.
type fastStatus uint8

const (
	fastCommitted  fastStatus = iota
	fastConflict              // pending tx, seq-validation abort, or lost commit CAS
	fastIneligible            // >2 distinct stores, Alloc/Free, or MaxStores exceeded
	fastCrossLine             // PTM: the two words do not share a pair cache line
)

// fastStats are one slot's fast-path counters: owner-written (load+store
// via bump, no RMW — the whole point is a cheap commit), summed by
// Engine.Stats. There is no attempts counter: every attempt ends as
// exactly one commit or one fallback, so Stats derives FastAttempts as
// their sum and the hot path pays one counter update, not two.
type fastStats struct {
	commits      atomic.Uint64
	fbConflict   atomic.Uint64
	fbIneligible atomic.Uint64
	fbCrossLine  atomic.Uint64
}

// bump increments an owner-written counter without an RMW: only the slot
// owner writes it, readers (Stats) tolerate the load/store window.
func bump(a *atomic.Uint64) { a.Store(a.Load() + 1) }

// checkPtr is uTx.check hoisted to the engine, shared with fTx.
func (e *Engine) checkPtr(p tm.Ptr) {
	if p == 0 || int(p) >= e.cfg.HeapWords {
		panic(fmt.Errorf("core: heap pointer %d out of range", p))
	}
}

// fTx is the fast path's transaction handle: seq-validated loads like uTx,
// but the write set is at most two (address, value) registers held in the
// handle itself. A third distinct store, an Alloc or a Free marks the
// transaction ineligible and unwinds the body with the usual abort signal.
type fTx struct {
	e          *Engine
	s          *slot
	startSeq   uint64
	n          int
	cap        int // min(2, MaxStores): a 1-entry log cannot publish 2 stores
	ineligible bool
	addr       [2]uint64
	val        [2]uint64
}

var _ tm.Tx = (*fTx)(nil)

// Load implements tm.Tx with uTx's opacity rule plus register
// read-your-writes.
func (t *fTx) Load(p tm.Ptr) uint64 {
	t.e.checkPtr(p)
	for i := 0; i < t.n; i++ {
		if t.addr[i] == uint64(p) {
			return t.val[i]
		}
	}
	val, seq := t.e.words[p].Load()
	if seq > t.startSeq {
		panic(abortSignal{})
	}
	return val
}

// Store implements tm.Tx: it records the store in a register, replacing a
// pending store to the same address, and bails to the full path when the
// register file is full.
func (t *fTx) Store(p tm.Ptr, v uint64) {
	t.e.checkPtr(p)
	for i := 0; i < t.n; i++ {
		if t.addr[i] == uint64(p) {
			t.val[i] = v
			return
		}
	}
	if t.n == t.cap {
		t.ineligible = true
		panic(abortSignal{})
	}
	t.addr[t.n], t.val[t.n] = uint64(p), v
	t.n++
}

// Alloc implements tm.Tx: allocator metadata updates never fit the
// register write-set, so the body is ineligible.
func (t *fTx) Alloc(int) tm.Ptr {
	t.ineligible = true
	panic(abortSignal{})
}

// Free implements tm.Tx: ineligible, as Alloc.
func (t *fTx) Free(tm.Ptr) {
	t.ineligible = true
	panic(abortSignal{})
}

// UpdateSmall implements tm.SmallUpdater: run fn as an update transaction,
// committing on the fast path when the body qualifies and the engine is
// quiet, falling back to the regular lock-free/wait-free path otherwise.
// The returned outcome tells steady-state callers whether probing again is
// worthwhile.
func (e *Engine) UpdateSmall(fn func(tx tm.Tx) uint64) (uint64, tm.SmallOutcome) {
	s := e.acquireFast()
	fast := false
	defer func() {
		if fast {
			e.releaseFast(s)
		} else {
			e.release(s) // the fallback ran the full path; keep its tuner fed
		}
	}()
	res, out := e.updateSmall(s, fn)
	fast = out == tm.SmallCommitted
	return res, out
}

// acquireFast claims a slot for a fast-path attempt with the minimum
// bookkeeping: one load of the rotation hint (no XADD — a solo caller
// reuses the same slot run after run) and one claim CAS on that slot.
// Anything off the happy path — slot taken, exclusivity gate closed —
// defers to the full acquireG, which owns hint rotation, spinning, parking
// and gate passes.
func (e *Engine) acquireFast() *slot {
	if e.closed.Load() {
		panic(tm.ErrEngineClosed)
	}
	s := &e.slots[e.claimHint.Load()%uint32(len(e.slots))]
	if s.claimed.Load() == 0 && s.claimed.CompareAndSwap(0, 1) {
		if e.excl.gate.v.Load() == 0 {
			return s
		}
		e.unclaim(s)
	}
	return e.acquireG(false)
}

// releaseFast is release without the adaptive-tuning bookkeeping (the
// releases XADD and the tune trigger): a fast commit's whole point is a
// minimum barrier count, and any full-path traffic keeps the tuner fed.
// Parked acquirers are still woken — that is liveness, not tuning.
func (e *Engine) releaseFast(s *slot) {
	s.claimed.Store(0)
	if e.cm.waiters.Load() > 0 {
		e.wakeOne()
	}
}

// updateSmall is UpdateSmall with the slot already acquired (the combiner's
// solo path enters here).
func (e *Engine) updateSmall(s *slot, fn func(tx tm.Tx) uint64) (uint64, tm.SmallOutcome) {
	o := e.obsv.Load()
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	res, st := e.fastAttempt(s, fn)
	if st == fastCommitted {
		if o != nil {
			o.FastLat.RecordSince(start)
			o.Rec.Record(obs.EvCommit, s.id, seqOf(e.curTx.Load()))
		}
		return res, tm.SmallCommitted
	}
	// Fallback: the regular update path, with its usual observability.
	if e.waitFree {
		res = e.updateWF(s, fn)
	} else {
		res = e.updateLF(s, fn)
	}
	if o != nil {
		o.UpdateLat.RecordSince(start)
		o.Rec.Record(obs.EvCommit, s.id, seqOf(e.curTx.Load()))
	}
	if st == fastConflict {
		return res, tm.SmallContended
	}
	return res, tm.SmallIneligible
}

// fastAttempt drives tryFast for up to fastTries rounds and maintains the
// per-slot fast-path counters. It never falls back itself: the caller
// decides what a non-commit means (UpdateSmall runs the full path, the
// combiner re-runs the body through its own machinery).
func (e *Engine) fastAttempt(s *slot, fn func(tx tm.Tx) uint64) (uint64, fastStatus) {
	st := fastConflict
	for round := 0; round < fastTries; round++ {
		var res uint64
		res, st = e.tryFast(s, fn)
		switch st {
		case fastCommitted:
			bump(&s.fst.commits)
			return res, fastCommitted
		case fastIneligible:
			bump(&s.fst.fbIneligible)
			return 0, fastIneligible
		case fastCrossLine:
			bump(&s.fst.fbCrossLine)
			return 0, fastCrossLine
		}
		e.contendedPause(round)
	}
	bump(&s.fst.fbConflict)
	return 0, st
}

// tryFast makes one fast-path attempt: the protocol in the file comment.
func (e *Engine) tryFast(s *slot, fn func(tx tm.Tx) uint64) (uint64, fastStatus) {
	oldTx := e.curTx.Load()
	if e.pending(oldTx) {
		// Help before running the body, exactly like every other body-
		// running path: on return the transaction is applied or superseded.
		e.helpApply(oldTx, s)
		return 0, fastConflict
	}
	t := &s.ftx
	t.startSeq = seqOf(oldTx)
	t.n = 0
	t.ineligible = false
	res, ok := runBody(fn, t)
	if !ok {
		if t.ineligible {
			return 0, fastIneligible
		}
		return 0, fastConflict
	}
	if t.n == 0 {
		// A read-only body: the snapshot was consistent at startSeq.
		s.st.readCommits.Add(1)
		return res, fastCommitted
	}
	if e.dev != nil && t.n == 2 &&
		t.addr[0]/pmem.PairLineWords != t.addr[1]/pmem.PairLineWords {
		// Two persistence units would break the single-atomic-flush
		// durability argument; let the full path handle it.
		return 0, fastCrossLine
	}
	// Publish the volatile log and open the request: helpers (and recovery,
	// on the full path) can now finish the transaction on our behalf. The
	// owner never flushes these stores.
	// Addresses and the entry count are only re-stored when they changed:
	// these words are owner-written, so an equal readback is this slot's own
	// earlier (already globally visible) store, and a repeated small update
	// to the same word — the steady state the fast path exists for — then
	// pays one barrier per entry instead of three.
	for i := 0; i < t.n; i++ {
		if s.logEnt[2*i].Load() != t.addr[i] {
			s.logEnt[2*i].Store(t.addr[i])
		}
		s.logEnt[2*i+1].Store(t.val[i])
	}
	if s.logNum.Load() != uint64(t.n) {
		s.logNum.Store(uint64(t.n))
	}
	newTx := makeTx(t.startSeq+1, s.id)
	s.request.Store(newTx)
	if !e.curTx.CompareAndSwap(oldTx, newTx) {
		return 0, fastConflict // stale-open request; never matches curTx again
	}
	// No helpTicket store: for a 1–2 word apply the claim gate saves less
	// than the barrier costs. A concurrent helper that observes the pending
	// request claims the ticket itself (claimHelp) and runs the seq-guarded
	// apply redundantly — a benign duplicate by design.
	seq := t.startSeq + 1
	for i := 0; i < t.n; i++ {
		e.applyWord(s, t.addr[i], t.val[i], seq)
	}
	if e.dev != nil {
		e.flushFast(s, t, seq)
	}
	// Close with a plain store, not a CAS: the only transition a request at
	// newTx can make is to newTx+1 — by us or by a helper that finished the
	// apply first (helpers flush and drain before their close, so our words
	// are durable either way) — and the owner starts no newer transaction
	// until this line has run, so the blind store is idempotent.
	s.request.Store(newTx + 1)
	return res, fastCommitted
}

// flushFast persists a fast commit's words: one FlushPairLine + one Fence.
// Snapshots torn or newer than our own sequence are skipped (see the flush
// snapshot guard in the file comment); if every word was superseded, a
// helper already closed us after flushing and draining, so nothing is
// flushed and no fence is needed.
func (e *Engine) flushFast(s *slot, t *fTx, seq uint64) {
	l := &s.line
	k := 0
	for i := 0; i < t.n; i++ {
		val, wseq, ok := e.words[t.addr[i]].Snapshot()
		if !ok || wseq != seq {
			continue
		}
		l.idx[k], l.vals[k], l.seqs[k] = int(t.addr[i]), val, wseq
		k++
	}
	if k == 0 {
		return
	}
	e.dev.FlushPairLine(s.id, k, &l.idx, &l.vals, &l.seqs)
	e.dev.Fence(s.id)
}

// fastFallbackCounts sums the per-reason fallback counters across slots
// (obs.go exposes them as individual metrics; the registry has no labels).
func (e *Engine) fastFallbackCounts() (conflict, ineligible, crossLine uint64) {
	for i := range e.slots {
		f := &e.slots[i].fst
		conflict += f.fbConflict.Load()
		ineligible += f.fbIneligible.Load()
		crossLine += f.fbCrossLine.Load()
	}
	return
}
