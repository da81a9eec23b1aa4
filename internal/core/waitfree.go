package core

import (
	"errors"
	"fmt"

	"onefile/internal/tm"
)

// opFailBit marks a committed result tag as a terminal failure: an
// aggregate executed the operation, its body panicked with a non-retry
// value, and the operation's heap effects were rolled back before the
// commit. Success tags can never collide with it — opTag counters stay far
// below 2^63, and recovery strips the bit before resuming a counter.
const opFailBit uint64 = 1 << 63

// resultWord returns the heap words carrying slot tid's operation result:
// the value word and the tag word. Both are ordinary TM words (the paper's
// results array of TMTypes), so results commit atomically with the
// transaction that produced them and, on the PTMs, are durable.
func (e *Engine) resultWord(tid int) (val, tag tm.Ptr) {
	base := e.resultsBase + tm.Ptr(2*tid)
	return base, base + 1
}

// updateWF is the bounded wait-free update path (§III-E): publish the
// operation, then alternate between helping the pending transaction and
// committing an aggregate transaction that executes every published
// operation — including, necessarily, our own.
func (e *Engine) updateWF(s *slot, fn func(tx tm.Tx) uint64) uint64 {
	s.opTag++
	d := &opDesc{fn: fn, tag: s.opTag, birth: seqOf(e.curTx.Load())}
	s.opSlot.Store(d)
	// Unpublish on every exit, panics included: a descriptor left behind
	// would be re-executed by every later aggregate — the submitter's own
	// next Update, or any helper's — raising one operation's failure on
	// arbitrary innocent transactions. The descriptor's lifetime ends
	// here; hand it to hazard eras. The free callback poisons the
	// descriptor so tests can detect a protocol violation (in C++ this
	// would be the actual deallocation).
	defer func() {
		s.opSlot.Store(nil)
		e.eras.Retire(s.id, d.birth, seqOf(e.curTx.Load()), func() { d.reclaimed.Store(true) })
	}()
	res, failed := e.runPublished(s, d)
	if failed {
		// A committed aggregate recorded the body's panic (runContained);
		// re-raise it here on the submitter, where the tm.Tx contract
		// says a body panic surfaces.
		if pv := d.fail.Load(); pv != nil {
			panic(*pv)
		}
		// Unreachable: the fail tag only commits after the executing
		// thread parked the panic value in the descriptor.
		panic(fmt.Errorf("core: operation failed without a panic value (slot %d tag %d)", s.id, d.tag))
	}
	return res
}

// publishAndRun escalates a read-only body that exhausted its optimistic
// attempts: it is published like an update operation, guaranteeing that
// within a bounded number of transactions some thread executes it (§III-E).
func (e *Engine) publishAndRun(s *slot, fn func(tx tm.Tx) uint64) uint64 {
	return e.updateWF(s, fn)
}

// runPublished drives a published operation to completion. This is the one
// place the engine announces a hazard era: everything that dereferences
// another slot's published descriptor (aggregateBody) runs inside this loop.
// The era is announced before the descriptors are read, and the
// re-validation of curTx afterwards keeps the descriptor-protection argument
// of §IV-B intact.
func (e *Engine) runPublished(s *slot, d *opDesc) (uint64, bool) {
	defer e.eras.Clear(s.id)
	for round := 0; ; round++ {
		oldTx := e.curTx.Load()
		e.eras.Protect(s.id, seqOf(oldTx))
		if res, failed, done := e.opResult(s.id, d.tag); done {
			return res, failed
		}
		if e.curTx.Load() != oldTx {
			continue // era announcement raced with a commit; re-read
		}
		if e.pending(oldTx) {
			e.helpApply(oldTx, s)
			continue
		}
		ok := e.transformAggregate(s, seqOf(oldTx))
		if !ok {
			s.st.aborts.Add(1)
			// Bounded pause before re-aggregating: the commit that
			// aborted us may be about to execute our operation, and
			// colliding with its apply phase only delays both (the
			// §III-E bound is untouched — the pause is constant and
			// the thread then aggregates as before).
			e.contendedPause(round)
			continue
		}
		if s.ws.n == 0 {
			// Every published operation (ours included) was already
			// tagged done; loop back to fetch the result.
			continue
		}
		newTx := makeTx(seqOf(oldTx)+1, s.id)
		if !e.commitAndApply(s, oldTx, newTx) {
			s.st.aborts.Add(1)
			e.contendedPause(round)
			continue
		}
	}
}

// transformAggregate builds one write-set executing every published
// operation that is not yet done, storing each result and its tag through
// ordinary transactional stores — so exactly-once execution follows from
// the single commit CAS (two aggregates never both commit for the same
// sequence, and the loser re-reads the tags).
func (e *Engine) transformAggregate(s *slot, startSeq uint64) bool {
	s.ws.reset()
	// Per-operation containment (runContained) rolls individual ops back
	// out of the shared write-set, which needs replacement undo recording
	// from the aggregate's first store on.
	s.ws.beginUndo()
	s.utx.startSeq = startSeq
	_, ok := runBody(e.aggregateBody, &s.utx)
	return ok
}

// aggregateBody is the body of the aggregate transaction. It is a method
// value only on the engine (no per-call closure) and pulls the executing
// slot back out of the transaction handle.
func (e *Engine) aggregateBody(tx tm.Tx) uint64 {
	u := tx.(*uTx)
	s := u.s
	startSeq := u.startSeq
	for t := range e.slots {
		d := e.slots[t].opSlot.Load()
		if d == nil {
			continue
		}
		if d.birth > startSeq {
			// Published by a newer era than our snapshot: not
			// covered by our hazard-era announcement, and
			// executing it could break isolation. A newer
			// transaction will pick it up (§IV-B).
			continue
		}
		if d.reclaimed.Load() {
			// Hazard-era protocol violation (would be a
			// use-after-free in C++). Never happens; counted so
			// tests can assert that.
			e.heViolations.Add(1)
			continue
		}
		valW, tagW := e.resultWord(t)
		if got := u.Load(tagW); got == d.tag || got == d.tag|opFailBit {
			continue // already executed (or terminally failed) by a committed transaction
		}
		if e.runContained(u, d, valW, tagW) {
			continue // aggregate-caused overflow: left published for a later, smaller aggregate
		}
		if t != s.id {
			s.st.aggregated.Add(1)
		}
	}
	return 0
}

// runContained executes one published operation inside the aggregate with
// the per-op isolation the group-commit layer gives batch members
// (runGuarded): a body panic must not escape on whichever thread happens
// to be aggregating — the submitter's goroutine is the only place the
// tm.Tx contract lets it surface. The result words are reserved before
// the body runs, so delivering a success or failure verdict afterwards
// only replaces existing write-set entries and can never itself overflow.
//
// Outcomes:
//   - success: result and tag stored; exactly-once via the commit CAS.
//   - abortSignal: the whole aggregate's concern; propagates.
//   - tm.ErrTooManyStores with other operations' stores already present:
//     the aggregate, not the operation, overflowed. Its stores are dropped
//     and it stays published for a later aggregate (skipped=true) —
//     aggregation never turns a fitting transaction into an overflow.
//   - any other panic (an overflow alone in the write-set included):
//     terminal. The operation's stores are rolled back, the panic value
//     parked in the descriptor, and the tag committed with opFailBit so
//     every racing aggregate agrees the op is done and the submitter
//     re-raises it exactly once.
func (e *Engine) runContained(u *uTx, d *opDesc, valW, tagW tm.Ptr) (skipped bool) {
	m := u.s.ws.mark()
	reserved := false
	var m2 wsMark
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, isAbort := r.(abortSignal); isAbort {
			panic(r)
		}
		if err, ok := r.(error); ok && errors.Is(err, tm.ErrTooManyStores) {
			if m.n > 0 {
				u.s.ws.rollbackTo(m)
				skipped = true
				return
			}
			if !reserved {
				// Even the two result words do not fit an empty
				// write-set: MaxStores < 2, no wait-free operation
				// can ever complete. Nothing to contain.
				panic(r)
			}
		}
		pv := r
		d.fail.Store(&pv)
		u.s.ws.rollbackTo(m2)
		u.Store(tagW, d.tag|opFailBit)
	}()
	u.Store(valW, 0)
	u.Store(tagW, 0)
	reserved = true
	m2 = u.s.ws.mark()
	r := d.fn(u)
	u.Store(valW, r)
	u.Store(tagW, d.tag)
	return false
}

// opResult reports whether slot tid's operation with the given tag has been
// executed by a committed-and-applied transaction, and its result. failed
// reports the terminal-failure verdict (opFailBit): the body panicked, its
// effects were rolled back, and the submitter must re-raise the parked
// panic value.
func (e *Engine) opResult(tid int, tag uint64) (res uint64, failed, done bool) {
	valW, tagW := e.resultWord(tid)
	tagVal, tagSeq, ok := e.words[tagW].Snapshot()
	if !ok || (tagVal != tag && tagVal != tag|opFailBit) {
		return 0, false, false
	}
	resVal, resSeq, ok := e.words[valW].Snapshot()
	if ok && resSeq >= tagSeq {
		return resVal, tagVal != tag, true
	}
	// The tag is applied but the value word is not yet, or a DCAS is landing
	// on one of the two right now: the transaction is still in its apply
	// phase; the caller will help and retry.
	return 0, false, false
}
